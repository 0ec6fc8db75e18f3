// Integration tests for the rstp CLI binary (tools/rstp_cli.cpp), exercised
// through the shell exactly as a user would. The cases whose comment starts
// with "Gate:" rerun a golden check's CLI invocation and --fail-on spec
// against the checked-in files under tests/ (this binary is in
// `ctest -L gate`). CMake injects the binary path as RSTP_CLI_PATH and the
// tests/ source directory as RSTP_TESTS_DIR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

std::string cli() { return RSTP_CLI_PATH; }

/// A checked-in reference file under tests/ (e.g. "golden/broken_beta.repro").
std::string tests_file(const std::string& relative) {
  return std::string{RSTP_TESTS_DIR} + "/" + relative;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::string content;
  std::string line;
  while (std::getline(in, line)) {
    content += line;
    content += '\n';
  }
  return content;
}

int run_command(const std::string& args, std::string* output = nullptr) {
  const std::string tmp = ::testing::TempDir() + "/cli_out.txt";
  const std::string command = cli() + " " + args + " > " + tmp + " 2>&1";
  const int status = std::system(command.c_str());
  if (output != nullptr) {
    output->clear();
    std::ifstream in{tmp};
    std::string line;
    while (std::getline(in, line)) {
      *output += line;
      *output += '\n';
    }
  }
  return WEXITSTATUS(status);
}

TEST(Cli, BoundsPrintsTheClosedForms) {
  std::string out;
  EXPECT_EQ(run_command("bounds 1 2 16 8", &out), 0);
  EXPECT_NE(out.find("delta1=16"), std::string::npos) << out;
  EXPECT_NE(out.find("passive_lower"), std::string::npos);
  EXPECT_NE(out.find("gamma_upper"), std::string::npos);
}

TEST(Cli, RunReportsCorrectVerifiedTransfer) {
  std::string out;
  EXPECT_EQ(run_command("run beta 1 2 8 8 64 --stats", &out), 0);
  EXPECT_NE(out.find("correct:    yes"), std::string::npos) << out;
  EXPECT_NE(out.find("accepts (in good(A))"), std::string::npos);
  EXPECT_NE(out.find("peak in-flight"), std::string::npos);
}

TEST(Cli, RunAcceptsLiteralBitString) {
  std::string out;
  EXPECT_EQ(run_command("run gamma 1 2 8 4 01101001", &out), 0);
  EXPECT_NE(out.find("input bits: 8"), std::string::npos) << out;
  EXPECT_NE(out.find("correct:    yes"), std::string::npos);
}

TEST(Cli, RunThenVerifyRoundTrip) {
  const std::string trace_file = ::testing::TempDir() + "/cli_trace.txt";
  std::string out;
  ASSERT_EQ(run_command("run alpha 1 2 4 2 10101010 --trace " + trace_file, &out), 0) << out;
  // The saved trace verifies against the same model and output.
  EXPECT_EQ(run_command("verify 1 2 4 " + trace_file + " 10101010", &out), 0) << out;
  EXPECT_NE(out.find("trace OK"), std::string::npos);
  // …and fails against the wrong expected output.
  EXPECT_EQ(run_command("verify 1 2 4 " + trace_file + " 01010101", &out), 1);
  EXPECT_NE(out.find("OutputNotPrefix"), std::string::npos) << out;
  // …and against a tighter model (smaller d than the delays in the trace).
  EXPECT_EQ(run_command("verify 1 2 3 " + trace_file + " 10101010", &out), 1);
  EXPECT_NE(out.find("DeliveryTooLate"), std::string::npos) << out;
  std::remove(trace_file.c_str());
}

TEST(Cli, VerifyRejectsAMalformedTraceWithExitTwo) {
  // A malformed trace is a usage error (2), not a trace that fails to
  // verify (1); the error names the line.
  const std::string trace_file = ::testing::TempDir() + "/cli_bad_trace.txt";
  std::string out;
  for (const char* line : {"0 0 t send tr 0 junk", "0 0 r internal -1 idle_r"}) {
    std::ofstream{trace_file} << "# rstp timed trace, 1 events\n" << line << "\n";
    EXPECT_EQ(run_command("verify 1 2 4 " + trace_file + " 0", &out), 2) << line << "\n" << out;
    EXPECT_NE(out.find("on line 2"), std::string::npos) << out;
  }
  std::remove(trace_file.c_str());
}

TEST(Cli, ExploreVerifiesBetaAndRefutesStrawman) {
  std::string out;
  EXPECT_EQ(run_command("explore beta 2 3 0100", &out), 0);
  EXPECT_NE(out.find("VERIFIED over all schedules"), std::string::npos) << out;
  EXPECT_EQ(run_command("explore strawman 2 2 01000000", &out), 1);
  EXPECT_NE(out.find("VIOLATION FOUND"), std::string::npos) << out;
  EXPECT_NE(out.find("counterexample:"), std::string::npos);
}

TEST(Cli, AdversarialEnvironmentFlagWorks) {
  std::string out;
  EXPECT_EQ(run_command("run beta 1 1 8 4 64 --env adversarial", &out), 0) << out;
  EXPECT_NE(out.find("correct:    yes"), std::string::npos);
  EXPECT_EQ(run_command("run strawman 1 1 8 4 64 --env adversarial", &out), 1);
  EXPECT_NE(out.find("correct:    NO"), std::string::npos) << out;
}

TEST(Cli, FastAndRandomEnvironmentsRun) {
  std::string out;
  EXPECT_EQ(run_command("run gamma 1 2 8 8 32 --env fast", &out), 0) << out;
  EXPECT_NE(out.find("correct:    yes"), std::string::npos);
  EXPECT_EQ(run_command("run gammaw 1 2 8 8 32 --env random --seed 9", &out), 0) << out;
  EXPECT_NE(out.find("correct:    yes"), std::string::npos);
  EXPECT_EQ(run_command("run indexed 1 2 8 4 32", &out), 0) << out;  // k auto-raised
  EXPECT_NE(out.find("correct:    yes"), std::string::npos);
}

TEST(Cli, UsageErrorsExitWithTwo) {
  std::string out;
  EXPECT_EQ(run_command("", &out), 2);
  EXPECT_EQ(run_command("frobnicate", &out), 2);
  EXPECT_EQ(run_command("run nosuchprotocol 1 2 4 2 8", &out), 2);
  EXPECT_EQ(run_command("bounds 1 2", &out), 2);
  EXPECT_EQ(run_command("fuzz beta --budget 4 --corpus /nonexistent/corpus", &out), 2);
  EXPECT_NE(out.find("cannot read corpus dir"), std::string::npos) << out;

  // A malformed replay artifact is a usage error too; exit 1 means "parsed
  // but did not reproduce". Each copy of a golden artifact has one line
  // edited: a negative unsigned value (`input_bits -32` used to wrap to
  // ~4.3e9 and hang the replay) or a trailing token.
  const std::string artifact = ::testing::TempDir() + "/cli_malformed_artifact";
  for (const auto& [golden, line, replacement] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"golden/broken_beta.repro", "input_bits 32", "input_bits -32"},
           {"golden/broken_beta.repro", "max_events 200000", "max_events 200000 7"},
           {"golden/worst_case.adversary", "k 6", "k -6"},
           {"golden/worst_case.adversary", "k 6", "k 4 junk"}}) {
    std::string text = read_file(tests_file(golden));
    text.replace(text.find(line + '\n'), line.size(), replacement);
    std::ofstream{artifact} << text;
    EXPECT_EQ(run_command("replay " + artifact, &out), 2) << replacement << '\n' << out;
    EXPECT_NE(out.find("malformed artifact"), std::string::npos) << out;
  }
}

TEST(Cli, BadNumericArgumentsExitWithTwoAndNameTheToken) {
  std::string out;
  EXPECT_EQ(run_command("bounds 1x 2 16 8", &out), 2);
  EXPECT_NE(out.find("invalid c1 '1x'"), std::string::npos) << out;
  EXPECT_EQ(run_command("run beta 1 2 8 8 64 --seed nope", &out), 2);
  EXPECT_NE(out.find("invalid --seed 'nope'"), std::string::npos) << out;
  EXPECT_EQ(run_command("run beta 1 2 8 8 12abc", &out), 2);
  EXPECT_NE(out.find("invalid input length '12abc'"), std::string::npos) << out;
  // Out-of-range is a parse failure too (std::stoll would have thrown here).
  EXPECT_EQ(run_command("bounds 99999999999999999999 2 16 8", &out), 2);
  EXPECT_NE(out.find("invalid c1"), std::string::npos) << out;
  EXPECT_EQ(run_command("campaign --threads -3", &out), 2);
  EXPECT_NE(out.find("invalid --threads '-3'"), std::string::npos) << out;
}

TEST(Cli, MetricsOutThenReportRoundTrip) {
  const std::string jsonl = ::testing::TempDir() + "/cli_metrics.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  ASSERT_EQ(run_command("run gamma 1 2 6 4 32 --metrics-out " + jsonl, &out), 0) << out;
  EXPECT_NE(out.find("metrics:    appended to"), std::string::npos) << out;
  // A second run appends, so one file accumulates a comparable series.
  ASSERT_EQ(run_command("run beta 1 2 6 4 32 --metrics-out " + jsonl, &out), 0) << out;
  EXPECT_EQ(run_command("report " + jsonl, &out), 0);
  EXPECT_NE(out.find("gamma"), std::string::npos) << out;
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("runs: 2"), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

/// The net_us column of the --timing row that starts with `label`, in whole
/// nanoseconds (the column prints ns / 1000 with three decimals).
std::int64_t timing_row_ns(const std::string& out, const std::string& label) {
  const std::size_t at = out.find("\n" + label + " ");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no row '" << label << "' in:\n" << out;
    return 0;
  }
  const std::size_t begin = at + 1 + label.size();
  std::istringstream row{out.substr(begin, out.find('\n', begin) - begin)};
  std::vector<std::string> cells;
  for (std::string cell; row >> cell;) cells.push_back(cell);
  // Layer and timer rows: calls, net_us, mean_ns, share; the residual and
  // wall rows: net_us, share.
  const std::string& us = cells.size() == 4 ? cells[1] : cells.at(0);
  return std::llround(std::stod(us) * 1000.0);
}

TEST(Cli, RunTimingPrintsThePhaseTable) {
  std::string out;
  EXPECT_EQ(run_command("run gamma 1 2 6 4 32 --timing", &out), 0);
  EXPECT_NE(out.find("host timing (clock: "), std::string::npos) << out;
  EXPECT_NE(out.find("codec: 8 blocks encoded, 8 blocks decoded"), std::string::npos) << out;
  // One row per timed layer, the timers' own cost and the simulator's
  // residual; together they are the run's wall time, to the nanosecond.
  std::int64_t sum = 0;
  for (const char* row : {"protocols.enabled_local", "protocols.apply", "sim.scheduler.next_gap",
                          "channel.policy_choose", "timer cost", "simulator own (residual)"}) {
    sum += timing_row_ns(out, row);
  }
  const std::int64_t wall = timing_row_ns(out, "wall time");
  EXPECT_GT(wall, 0);
  EXPECT_EQ(sum, wall) << out;
}

TEST(Cli, ReportDiffOfIdenticalSeriesHoldsTheGate) {
  const std::string jsonl = ::testing::TempDir() + "/cli_diff_base.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  ASSERT_EQ(run_command("run gamma 1 2 6 4 32 --metrics-out " + jsonl, &out), 0) << out;
  EXPECT_EQ(run_command("report " + jsonl + " " + jsonl + " --fail-on 'effort_mean>1%'", &out),
            0);
  EXPECT_NE(out.find("0 changed"), std::string::npos) << out;
  EXPECT_NE(out.find("gate: all 1 thresholds hold"), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

TEST(Cli, ReportDiffTripsTheGateOnARegression) {
  const std::string old_jsonl = ::testing::TempDir() + "/cli_diff_old.jsonl";
  const std::string new_jsonl = ::testing::TempDir() + "/cli_diff_new.jsonl";
  std::remove(old_jsonl.c_str());
  std::remove(new_jsonl.c_str());
  std::string out;
  // Same cell identity, radically different environment: the worst-case run
  // works much harder per bit, so effort_mean regresses far past 1%.
  ASSERT_EQ(run_command("run gamma 1 2 6 4 32 --env fast --metrics-out " + old_jsonl, &out), 0);
  ASSERT_EQ(run_command("run gamma 1 2 6 4 32 --env worst --metrics-out " + new_jsonl, &out), 0);
  EXPECT_EQ(run_command("report " + old_jsonl + " " + new_jsonl +
                            " --fail-on 'effort_mean>1%'",
                        &out),
            3);
  EXPECT_NE(out.find("gate: effort_mean>1% tripped"), std::string::npos) << out;
  // Without --fail-on the same diff is informational and exits 0.
  EXPECT_EQ(run_command("report " + old_jsonl + " " + new_jsonl, &out), 0);
  EXPECT_NE(out.find("1 changed"), std::string::npos) << out;
  std::remove(old_jsonl.c_str());
  std::remove(new_jsonl.c_str());
}

TEST(Cli, ReportDiffJsonEmitsTheSchemaTag) {
  const std::string jsonl = ::testing::TempDir() + "/cli_diff_json.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  ASSERT_EQ(run_command("run beta 1 2 6 4 32 --metrics-out " + jsonl, &out), 0);
  EXPECT_EQ(run_command("report " + jsonl + " " + jsonl + " --json", &out), 0);
  EXPECT_NE(out.find("\"schema\":\"rstp-metrics-diff-v1\""), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

TEST(Cli, ReportDiffRejectsMalformedInputWithLineNumber) {
  const std::string good = ::testing::TempDir() + "/cli_diff_good.jsonl";
  const std::string bad = ::testing::TempDir() + "/cli_diff_bad.jsonl";
  std::remove(good.c_str());
  std::string out;
  ASSERT_EQ(run_command("run beta 1 2 6 4 32 --metrics-out " + good, &out), 0);
  // Copy the good line, then append garbage: the error must name line 2 of
  // the offending file and use the usage-error exit code in two-file mode.
  std::ifstream in{good};
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::ofstream{bad} << line << "\n" << "{\"schema\":\"rstp-run-metrics-v1\", broken\n";
  EXPECT_EQ(run_command("report " + good + " " + bad, &out), 2);
  EXPECT_NE(out.find(bad), std::string::npos) << out;
  EXPECT_NE(out.find("line 2"), std::string::npos) << out;
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

TEST(Cli, ReportDiffRejectsBadThresholdSpecs) {
  const std::string jsonl = ::testing::TempDir() + "/cli_diff_spec.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  ASSERT_EQ(run_command("run beta 1 2 6 4 32 --metrics-out " + jsonl, &out), 0);
  EXPECT_EQ(run_command("report " + jsonl + " " + jsonl + " --fail-on 'effort_mean>>1%'",
                        &out),
            2);
  EXPECT_NE(out.find("bad --fail-on clause"), std::string::npos) << out;
  EXPECT_EQ(run_command("report " + jsonl + " " + jsonl + " --fail-on 'no_such_thing>1'",
                        &out),
            2);
  EXPECT_NE(out.find("no_such_thing"), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

TEST(Cli, CampaignRunsTheGoldenGrid) {
  // Gate: the fresh golden grid diffs clean against the checked-in
  // campaign baseline under the full metrics spec.
  const std::string jsonl = ::testing::TempDir() + "/cli_campaign.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  EXPECT_EQ(run_command("campaign --metrics-out " + jsonl + " --threads 2", &out), 0);
  EXPECT_NE(out.find("golden grid: 32 jobs, 0 incorrect"), std::string::npos) << out;
  EXPECT_EQ(run_command("report " + tests_file("golden/campaign_baseline.jsonl") + " " + jsonl +
                            " --fail-on 'cells_changed>0,cells_missing>0,cells_extra>0,"
                            "effort_mean>1%,delay_p99>5%'",
                        &out),
            0)
      << out;
  EXPECT_NE(out.find("gate: all 5 thresholds hold"), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

TEST(Cli, DashboardDegradesToPlainLinesWhenPiped) {
  // run_command pipes stdout into a file, so the TTY probe fails and
  // --dashboard must fall back to one-line progress with zero ANSI bytes.
  std::string out;
  EXPECT_EQ(run_command("campaign --dashboard --threads 2", &out), 0);
  EXPECT_EQ(out.find('\x1b'), std::string::npos) << out;
  EXPECT_NE(out.find("golden grid: 32 jobs, 0 incorrect"), std::string::npos) << out;
  EXPECT_NE(out.find("campaign: 32/32 jobs (100.0%)"), std::string::npos) << out;

  EXPECT_EQ(run_command("fuzz beta --seed 1 --budget 64 --jobs 2 --dashboard", &out), 0);
  EXPECT_EQ(out.find('\x1b'), std::string::npos) << out;
  EXPECT_NE(out.find("fuzz: gen "), std::string::npos) << out;
  // --no-dashboard wins over --dashboard and silences the per-generation feed.
  EXPECT_EQ(run_command("fuzz beta --seed 1 --budget 64 --jobs 2 --dashboard --no-dashboard",
                        &out),
            0);
  EXPECT_EQ(out.find("fuzz: gen "), std::string::npos) << out;
}

TEST(Cli, ReportRejectsNonFiniteGateLimits) {
  const std::string jsonl = ::testing::TempDir() + "/cli_diff_nan.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  ASSERT_EQ(run_command("run beta 1 2 6 4 32 --metrics-out " + jsonl, &out), 0);
  // 'effort_mean>nan' used to parse and then pass everything (NaN compares
  // false); it is now a usage error like any other malformed clause.
  EXPECT_EQ(run_command("report " + jsonl + " " + jsonl + " --fail-on 'effort_mean>nan'",
                        &out),
            2);
  EXPECT_NE(out.find("bad --fail-on clause"), std::string::npos) << out;
  EXPECT_EQ(run_command("report " + jsonl + " " + jsonl + " --fail-on 'events>inf'", &out), 2);
  std::remove(jsonl.c_str());
}

TEST(Cli, ReportOnMissingOrMalformedInputFails) {
  std::string out;
  EXPECT_EQ(run_command("report /nonexistent/metrics.jsonl", &out), 1);
  EXPECT_NE(out.find("cannot open"), std::string::npos) << out;
  // Malformed input is a usage error (exit 2), as in the two-file form.
  const std::string bad = ::testing::TempDir() + "/cli_bad.jsonl";
  std::ofstream{bad} << "this is not json\n";
  EXPECT_EQ(run_command("report " + bad, &out), 2);
  EXPECT_NE(out.find("line 1"), std::string::npos) << out;
  std::remove(bad.c_str());
}

TEST(Cli, ReportRejectsAnUnknownKeyWithExitTwo) {
  // The golden campaign baseline with its first "writes" counter misspelt:
  // the reader would drop the field and read writes as 0, so it must reject
  // the record, naming the line and the key, in both report forms.
  const std::string golden = tests_file("golden/campaign_baseline.jsonl");
  std::string text = read_file(golden);
  text.replace(text.find("\"writes\""), 8, "\"wriets\"");
  const std::string mutant = ::testing::TempDir() + "/cli_wriets.jsonl";
  std::ofstream{mutant} << text;
  std::string out;
  EXPECT_EQ(run_command("report " + mutant, &out), 2);
  EXPECT_NE(out.find("line 1: counters: unknown key \"wriets\""), std::string::npos) << out;
  EXPECT_EQ(run_command("report " + golden + " " + mutant, &out), 2);
  EXPECT_NE(out.find("line 1: counters: unknown key \"wriets\""), std::string::npos) << out;
  std::remove(mutant.c_str());
}

TEST(Cli, ReportRejectsABrokenHistogramWithExitTwo) {
  // The golden campaign baseline with "max" renamed in its first histogram:
  // max reads as 0 < min, which must be a structured parse error naming the
  // line in both report forms, not a contract violation (exit 1).
  const std::string golden = tests_file("golden/campaign_baseline.jsonl");
  std::string text = read_file(golden);
  text.replace(text.find("\"max\""), 5, "\"m01ax\"");
  const std::string mutant = ::testing::TempDir() + "/cli_m01ax.jsonl";
  std::ofstream{mutant} << text;
  std::string out;
  EXPECT_EQ(run_command("report " + mutant, &out), 2);
  EXPECT_NE(out.find("line 1: histogram data_delay: min 6 exceeds max 0"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("ContractViolation"), std::string::npos) << out;
  EXPECT_EQ(run_command("report " + golden + " " + mutant, &out), 2);
  EXPECT_NE(out.find("line 1"), std::string::npos) << out;
  std::remove(mutant.c_str());
}

TEST(Cli, ModelErrorsSurfaceCleanly) {
  std::string out;
  // A protocol's own contract (windowed γ needs k >= 2W) is checked by the
  // library; the CLI must catch and report the violation.
  EXPECT_EQ(run_command("run gammaw 1 2 6 3 32", &out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
}

TEST(Cli, BoundsRejectsC1AboveC2AsAUsageError) {
  std::string out;
  EXPECT_EQ(run_command("bounds 3 2 6 4", &out), 2);
  EXPECT_NE(out.find("out-of-model c2 '2'"), std::string::npos) << out;
  EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
}

TEST(Cli, BoundsRejectsAnAlphabetBelowTwoAsAUsageError) {
  std::string out;
  EXPECT_EQ(run_command("bounds 1 2 6 1", &out), 2);
  EXPECT_NE(out.find("out-of-model k '1'"), std::string::npos) << out;
  EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
}

TEST(Cli, RunRejectsAZeroC1AsAUsageError) {
  std::string out;
  EXPECT_EQ(run_command("run gamma 0 2 6 4 32", &out), 2);
  EXPECT_NE(out.find("out-of-model c1 '0'"), std::string::npos) << out;
  EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
}

TEST(Cli, RunRejectsAZeroAlphabetAsAUsageError) {
  std::string out;
  EXPECT_EQ(run_command("run gamma 1 2 6 0 32", &out), 2);
  EXPECT_NE(out.find("out-of-model k '0'"), std::string::npos) << out;
  EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
}

TEST(Cli, MegaRejectsZeroCountsAsUsageErrors) {
  for (const std::string flag : {"--sessions", "--shards", "--max-events"}) {
    std::string out;
    EXPECT_EQ(run_command("mega " + flag + " 0", &out), 2) << flag << "\n" << out;
    EXPECT_NE(out.find("invalid " + flag + " '0'"), std::string::npos) << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
}

TEST(Cli, FuzzAndAdversaryRejectZeroCountsAsUsageErrors) {
  const std::pair<std::string, std::string> cases[] = {
      {"fuzz alpha", "--budget"},
      {"fuzz alpha", "--bits"},
      {"fuzz alpha", "--max-events"},
      {"adversary --grid quick", "--budget"},
      {"adversary --grid quick", "--max-events"},
  };
  for (const auto& [command, flag] : cases) {
    std::string out;
    EXPECT_EQ(run_command(command + " " + flag + " 0", &out), 2) << command << " " << flag
                                                                 << "\n" << out;
    EXPECT_NE(out.find("invalid " + flag + " '0'"), std::string::npos) << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
}

TEST(Cli, RunWritesChromeTraceWithTraceOut) {
  const std::string trace_json = ::testing::TempDir() + "/cli_span_trace.json";
  std::remove(trace_json.c_str());
  std::string out;
  // Both --trace-out FILE and --trace-out=FILE spellings are accepted, and
  // the span tracer rides along with --timing.
  ASSERT_EQ(
      run_command("run beta 1 2 6 4 32 --seed 7 --timing --trace-out=" + trace_json, &out), 0)
      << out;
  EXPECT_NE(out.find("trace-out:  written to"), std::string::npos) << out;
  EXPECT_NE(out.find("flow events"), std::string::npos) << out;
  const std::string content = read_file(trace_json);
  ASSERT_FALSE(content.empty());
  EXPECT_NE(content.find("\"schema\":\"rstp-trace-v1\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"s\""), std::string::npos);  // at least one flow start
  EXPECT_NE(content.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(content.find("model: channel"), std::string::npos);
  // --timing puts the host timer's spans on the pid-100 track.
  EXPECT_NE(content.find("host: layers"), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"protocols.apply\",\"cat\":\"host\",\"pid\":100"),
            std::string::npos);
  std::remove(trace_json.c_str());
}

TEST(Cli, ReplayWritesChromeTraceWithTraceOut) {
  const std::string trace_json = ::testing::TempDir() + "/cli_replay_trace.json";
  std::remove(trace_json.c_str());
  std::string out;
  // The golden repro records a failing verdict; replay exits 0 iff it
  // reproduces bitwise — and the trace file captures the faulty timeline.
  ASSERT_EQ(run_command("replay " + tests_file("golden/broken_beta.repro") + " --trace-out " +
                            trace_json,
                        &out),
            0)
      << out;
  EXPECT_NE(out.find("trace-out:  written to"), std::string::npos) << out;
  const std::string content = read_file(trace_json);
  ASSERT_FALSE(content.empty());
  EXPECT_NE(content.find("\"schema\":\"rstp-trace-v1\""), std::string::npos);
  std::remove(trace_json.c_str());
}

TEST(Cli, EstimatorRunReportsLiveEstimates) {
  std::string out;
  EXPECT_EQ(run_command("run beta 1 2 6 4 64 --estimator", &out), 0) << out;
  EXPECT_NE(out.find("correct:    yes"), std::string::npos) << out;
  EXPECT_NE(out.find("estimator:  margin 0.125"), std::string::npos) << out;
  EXPECT_NE(out.find("accepts (in good(A))"), std::string::npos) << out;
  // An explicit margin and a drift script ride along; the estimator chases
  // the post-breakpoint delay and the run still verifies.
  EXPECT_EQ(run_command("run gamma 1 2 6 4 64 --estimator=0 --drift 0:6,120:3", &out), 0) << out;
  EXPECT_NE(out.find("correct:    yes"), std::string::npos) << out;
  EXPECT_NE(out.find("drift:"), std::string::npos) << out;
  EXPECT_NE(out.find("estimator:  margin 0"), std::string::npos) << out;
  // d̂ re-converges down to the post-breakpoint delay of 3.
  EXPECT_NE(out.find("(c1,c2,d) = (2, 2, 3)"), std::string::npos) << out;
}

TEST(Cli, EstimatorAndDriftUsageErrorsNameTheBadToken) {
  std::string out;
  EXPECT_EQ(run_command("run beta 1 2 6 4 64 --drift nope", &out), 2);
  EXPECT_NE(out.find("bad --drift segment 'nope'"), std::string::npos) << out;
  EXPECT_EQ(run_command("run beta 1 2 6 4 64 --drift 0:9,250", &out), 2);
  EXPECT_NE(out.find("bad --drift segment '250'"), std::string::npos) << out;
  EXPECT_EQ(run_command("run beta 1 2 6 4 64 --estimator=abc", &out), 2);
  EXPECT_NE(out.find("invalid --estimator margin 'abc'"), std::string::npos) << out;
  EXPECT_EQ(run_command("run beta 1 2 6 4 64 --estimator=1.5", &out), 2);
  EXPECT_NE(out.find("invalid --estimator margin '1.5'"), std::string::npos) << out;
  EXPECT_EQ(run_command("run alpha 1 2 6 2 64 --estimator", &out), 2);
  EXPECT_NE(out.find("--estimator supports only beta and gamma"), std::string::npos) << out;
}

TEST(Cli, ReplayRejectsTheEstimatorFlag) {
  std::string out;
  EXPECT_EQ(run_command("replay " + tests_file("golden/broken_beta.repro") + " --estimator", &out),
            2);
  EXPECT_NE(out.find("--estimator is not supported for replay"), std::string::npos) << out;
}

TEST(Cli, EstimatorCampaignHoldsThePenaltyGate) {
  // Gate: the fresh estimator grid holds the 5% penalty budget against the
  // checked-in estimator baseline.
  const std::string jsonl = ::testing::TempDir() + "/cli_est_campaign.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  EXPECT_EQ(run_command("campaign --estimator --metrics-out " + jsonl + " --threads 2", &out), 0);
  EXPECT_NE(out.find("estimator grid: 16 jobs, 0 incorrect"), std::string::npos) << out;
  EXPECT_EQ(run_command("report " + tests_file("golden/estimator_baseline.jsonl") + " " + jsonl +
                            " --fail-on 'cells_changed>0,cells_missing>0,cells_extra>0,"
                            "est_penalty_max>5%'",
                        &out),
            0)
      << out;
  EXPECT_NE(out.find("gate: all 4 thresholds hold"), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

TEST(Cli, TimingReportsOverheadAndHonorsNoTscEnv) {
  std::string out;
  ASSERT_EQ(run_command("run beta 1 2 6 4 32 --timing", &out), 0) << out;
  EXPECT_NE(out.find(", timer self "), std::string::npos) << out;
  EXPECT_NE(out.find("net_us"), std::string::npos) << out;

  // RSTP_NO_TSC forces the steady_clock fallback; timing must still work.
  const std::string tmp = ::testing::TempDir() + "/cli_notsc.txt";
  const std::string command =
      "RSTP_NO_TSC=1 " + cli() + " run beta 1 2 6 4 32 --timing > " + tmp + " 2>&1";
  ASSERT_EQ(WEXITSTATUS(std::system(command.c_str())), 0);
  const std::string content = read_file(tmp);
  EXPECT_NE(content.find("clock: steady"), std::string::npos) << content;
  std::remove(tmp.c_str());
}

TEST(Cli, FuzzMetricsHoldTheFuzzBaseline) {
  // Gate: the schedules-only pass over each paper protocol writes one row
  // per corpus entry, and the rows diff clean against the checked-in
  // per-case fuzz baseline.
  const std::string jsonl = ::testing::TempDir() + "/cli_fuzz_metrics.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  for (const char* protocol : {"alpha", "beta", "gamma", "altbit"}) {
    EXPECT_EQ(run_command(std::string("fuzz ") + protocol +
                              " --seed 1 --budget 64 --jobs 2 --metrics-out " + jsonl,
                          &out),
              0)
        << protocol << "\n" << out;
  }
  EXPECT_EQ(run_command("report " + tests_file("golden/fuzz_baseline.jsonl") + " " + jsonl +
                            " --fail-on 'cells_changed>0,cells_missing>0,cells_extra>0,"
                            "effort_mean>1%'",
                        &out),
            0)
      << out;
  EXPECT_NE(out.find("gate: all 4 thresholds hold"), std::string::npos) << out;
  std::remove(jsonl.c_str());
}

TEST(Cli, FaultInjectedFuzzFromTheCorpusFindsNoFailures) {
  // Gate: fault injection on, seeded from the checked-in corpus; exit 1
  // would mean an unexcused violation in a protocol that is supposed to be
  // correct, with its minimized repro in the output.
  std::string out;
  for (const char* protocol : {"alpha", "beta", "gamma", "altbit"}) {
    EXPECT_EQ(run_command(std::string("fuzz ") + protocol +
                              " --seed 1 --budget 64 --jobs 2 --faults --corpus " +
                              tests_file("fuzz/corpus"),
                          &out),
              0)
        << protocol << "\n" << out;
  }
}

TEST(Cli, AdversaryVerbWritesAReplayableArtifact) {
  // Gate: the quick-grid search must beat or match the hand-coded worst
  // case on every cell (exit 1 otherwise), its minimized artifact must
  // replay bitwise, and so must the checked-in golden effort maximizer.
  const std::string artifact = ::testing::TempDir() + "/cli_adversary.repro";
  std::remove(artifact.c_str());
  std::string out;
  ASSERT_EQ(run_command("adversary --grid quick --budget 32 --seed 1 --jobs 2 --repro-out " +
                            artifact,
                        &out),
            0)
      << out;
  EXPECT_NE(out.find("repro:     written to"), std::string::npos) << out;
  EXPECT_EQ(run_command("replay " + artifact, &out), 0) << out;
  EXPECT_EQ(run_command("replay " + tests_file("golden/worst_case.adversary"), &out), 0) << out;
  std::remove(artifact.c_str());
}

TEST(Cli, MegaHostsSessionsAndWritesOneRow) {
  // The mega verb's wiring; the golden 10k-session cell and its throughput
  // floor are MegasessionGolden.BaselineReproducesExactly.
  const std::string jsonl = ::testing::TempDir() + "/cli_mega.jsonl";
  std::remove(jsonl.c_str());
  std::string out;
  EXPECT_EQ(run_command("mega --sessions 200 --metrics-out " + jsonl, &out), 0) << out;
  EXPECT_NE(out.find("mega: 200 sessions"), std::string::npos) << out;
  EXPECT_NE(out.find(" 0 incorrect"), std::string::npos) << out;
  const std::string content = read_file(jsonl);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 1) << content;
  EXPECT_NE(content.find("\"sessions\":200"), std::string::npos) << content;
  std::remove(jsonl.c_str());
}

TEST(Cli, MegaRaisesTheAlphabetForIndexed) {
  // Indexed needs k >= 2|X|; mega raises the default k = 2 as `run` does.
  std::string out;
  EXPECT_EQ(run_command("mega --protocol indexed --sessions 4", &out), 0) << out;
  EXPECT_NE(out.find(" 0 incorrect"), std::string::npos) << out;
  EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
}

}  // namespace
