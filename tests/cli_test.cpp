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

TEST(Cli, RunNamesTheEventCap) {
  // α at d = 10^7 sends one bit per 10^7 ticks, and the run verb's
  // 50M-event cap stops it after two writes. Y is a prefix of X so far, so
  // the verdict is inconclusive (exit 3), not a failure.
  std::string out;
  EXPECT_EQ(run_command("run alpha 1 1 10000000 2 8", &out), 3) << out;
  EXPECT_NE(out.find("stopped:    event cap of 50000000 reached"), std::string::npos) << out;
  EXPECT_EQ(run_command("run alpha 1 1 8 2 8", &out), 0) << out;
  EXPECT_EQ(out.find("stopped:"), std::string::npos) << out;
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
  for (const char* row : {"protocols.step", "protocols.deliver", "sim.scheduler.next_gap",
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

TEST(Cli, ReportDiffOfAnEditedBaselineMatchesItsGolden) {
  // Gate: `rstp report`'s table and --json output for the golden campaign
  // baseline against an edited copy, pinned byte for byte to
  // tests/golden/report_diff.txt. The copy edits three cells' values (and
  // gives two of them keys the baseline's older schema lacks), drops its
  // last line and appends a cell of its own, so changed, missing and extra
  // cells all appear. A deliberate
  // change re-records the golden from the copy this test writes.
  const std::string baseline = tests_file("golden/campaign_baseline.jsonl");
  std::string text = read_file(baseline);
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = text.find('\n', at);
    lines.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  ASSERT_EQ(lines.size(), 32u);
  const auto replace = [](std::string& line, const std::string& from, const std::string& to) {
    const std::size_t at = line.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    line.replace(at, from.size(), to);
  };
  std::string appended = lines[0];
  replace(appended, "\"seed\":9210758016143056862", "\"seed\":1");
  replace(lines[0], "\"effort\":11.8125", "\"effort\":12.5");
  replace(lines[0], "\"end_time\":0", "\"sessions\":3,\"end_time\":7");
  replace(lines[0], "\"correct\":true", "\"correct\":false");
  replace(lines[0], "\"events\":828", "\"events\":900");
  replace(lines[0], "\"sum\":384", "\"sum\":380");
  replace(lines[1], "\"end_time\":0",
          "\"gap_ratio\":1.25,\"est_penalty\":1.5,\"est\":{\"c1_hat\":1},\"end_time\":0");
  replace(lines[4], "\"writes\":64", "\"writes\":63");
  lines.pop_back();
  lines.push_back(appended);
  const std::string edited = ::testing::TempDir() + "/cli_report_edited.jsonl";
  {
    std::ofstream out{edited};
    for (const std::string& line : lines) out << line << '\n';
  }
  std::string table;
  std::string json;
  ASSERT_EQ(run_command("report " + baseline + " " + edited, &table), 0) << table;
  ASSERT_EQ(run_command("report " + baseline + " " + edited + " --json", &json), 0) << json;
  const std::string derived = table + json;
  const std::string fresh = ::testing::TempDir() + "/report_diff.txt";
  std::ofstream{fresh} << derived;
  EXPECT_EQ(read_file(tests_file("golden/report_diff.txt")), derived)
      << "the derived report is in " << fresh;
  std::remove(edited.c_str());
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
  EXPECT_EQ(run_command("report /nonexistent/metrics.jsonl", &out), 4);
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

TEST(Cli, AFileThatCannotBeOpenedExitsFourNotAVerdict) {
  // Exit 1 is verify's and replay's verdict "does not verify/reproduce"; a
  // missing input file is neither.
  std::string out;
  EXPECT_EQ(run_command("verify 1 2 4 /nonexistent 101", &out), 4) << out;
  EXPECT_NE(out.find("cannot open '/nonexistent'"), std::string::npos) << out;
  EXPECT_EQ(run_command("replay /nonexistent", &out), 4) << out;
  EXPECT_NE(out.find("cannot open '/nonexistent'"), std::string::npos) << out;
}

TEST(Cli, RunRecordsTheSeedWhicheverOrderTheFlagsCome) {
  // --env once reset the recorded seed to 1 when it followed --seed, while
  // the input was still drawn from --seed.
  std::string rows[2];
  const char* orders[2] = {"--seed 5 --env worst", "--env worst --seed 5"};
  for (int i = 0; i < 2; ++i) {
    const std::string jsonl = ::testing::TempDir() + "/cli_seed_order.jsonl";
    std::remove(jsonl.c_str());
    std::string out;
    ASSERT_EQ(run_command(std::string{"run gamma 1 2 6 4 64 "} + orders[i] + " --metrics-out " +
                              jsonl,
                          &out),
              0)
        << out;
    rows[i] = read_file(jsonl);
    std::remove(jsonl.c_str());
    EXPECT_NE(rows[i].find("\"seed\":5"), std::string::npos) << orders[i] << "\n" << rows[i];
  }
  EXPECT_EQ(rows[0], rows[1]);
}

TEST(Cli, BoundsRejectsC1AboveC2AsAUsageError) {
  std::string out;
  EXPECT_EQ(run_command("bounds 3 2 6 4", &out), 2);
  EXPECT_NE(out.find("out-of-model c2 '2'"), std::string::npos) << out;
  EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
}

TEST(Cli, ADelayPastThirtyTwoBitStepCountsIsAUsageError) {
  // Every δ sizes a 32-bit block, so the model takes ceil(d/c1) <= 2^32 - 1.
  // d = 4294967301 once wrapped to δ = 5 (bounds printed B_beta=2 and run
  // rejected its own trace), d = 2^32 reached the BlockCoder's RSTP_CHECK,
  // and d = 2^63 - 1 left zeta summing 2^32 - 1 terms.
  const std::pair<std::string, std::string> cases[] = {
      {"bounds 1 1 4294967296 2", "'4294967296'"},
      {"bounds 1 1 4294967301 2", "'4294967301'"},
      {"bounds 1 2 9223372036854775807 2", "'9223372036854775807'"},
      {"run beta 1 1 4294967296 4 8", "'4294967296'"},
      {"run beta 1 1 4294967301 4 8", "'4294967301'"},
      {"run gamma 1 2 9223372036854775807 4 8", "'9223372036854775807'"},
      {"verify 1 1 4294967296 /dev/null 0", "'4294967296'"},
      {"explore beta 4294967296 4 0101", "'4294967296'"},
  };
  for (const auto& [command, token] : cases) {
    std::string out;
    EXPECT_EQ(run_command(command, &out), 2) << command << "\n" << out;
    EXPECT_NE(out.find("out-of-model d " + token), std::string::npos) << command << "\n" << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
  // The largest step count the model takes: zeta's closed form answers at once.
  std::string out;
  EXPECT_EQ(run_command("bounds 1 1 4294967295 2", &out), 0) << out;
  EXPECT_NE(out.find("delta1=4294967295"), std::string::npos) << out;
  EXPECT_EQ(run_command("bounds 2 2 8589934590 2", &out), 0) << out;
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

TEST(Cli, WindowedGammaRejectsAnAlphabetOutsideItsWindowAsAUsageError) {
  // gammaw's default window W = 2 needs k >= 2·W and W | k; each verb that
  // pairs a protocol with a user k rejects the rest before building a run.
  const std::pair<std::string, std::string> cases[] = {
      {"run gammaw 1 2 4 2 16", "'2'"},
      {"run gammaw 1 2 4 5 16", "'5'"},
      {"run gammaw 1 2 6 3 32", "'3'"},
      {"mega --protocol gammaw --sessions 4", "'2'"},  // mega's default k
      {"explore gammaw 4 2 0101", "'2'"},
      {"fuzz gammaw --k 3 --budget 4", "'3'"},
  };
  for (const auto& [command, token] : cases) {
    std::string out;
    EXPECT_EQ(run_command(command, &out), 2) << command << "\n" << out;
    EXPECT_NE(out.find("out-of-model k " + token), std::string::npos) << command << "\n" << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
  std::string out;
  EXPECT_EQ(run_command("run gammaw 1 2 4 4 16", &out), 0) << out;
  EXPECT_EQ(run_command("mega --protocol gammaw --k 4 --sessions 4", &out), 0) << out;
}

TEST(Cli, AnAlphabetPastTheCodecTablesIsAUsageError) {
  // The codec builds tables for k <= MultisetCodec::kMaxUniverse = 262143,
  // the largest k whose one-symbol-block table (2k + 1 words) fits its 4 MiB
  // table cache. Every verb that runs protocols rejects a larger k before
  // building a run; k = 2^32 - 1 once reached the codec and exited 1 with
  // std::bad_alloc.
  const std::pair<std::string, std::string> cases[] = {
      {"run beta 1 1 1 4294967295 8", "'4294967295'"},
      {"run beta 1 1 1 262144 8", "'262144'"},
      {"run alpha 1 2 4 262144 8", "'262144'"},
      {"explore beta 4 262144 0101", "'262144'"},
      {"mega --protocol beta --k 262144 --sessions 1", "'262144'"},
      {"fuzz beta --k 262144 --budget 4", "'262144'"},
  };
  for (const auto& [command, token] : cases) {
    std::string out;
    EXPECT_EQ(run_command(command, &out), 2) << command << "\n" << out;
    EXPECT_NE(out.find("out-of-range k " + token), std::string::npos) << command << "\n" << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
  std::string out;
  EXPECT_EQ(run_command("run beta 1 1 1 262143 8", &out), 0) << out;
  // bounds builds no codec, so its k stays unbounded.
  EXPECT_EQ(run_command("bounds 1 2 8 4294967295", &out), 0) << out;
}

TEST(Cli, ABlockPastTheCodecTableCeilingIsAUsageError) {
  // The codec's tables hold (2k + 1)·δ entries however short the input, so
  // a long block could allocate without bound: at δ = 3·10^7 over k = 4
  // they take 4.3 GB, and `run beta 1 1 30000000 4 8` once exited 1 with
  // std::bad_alloc under a 1.5 GB address-space limit. Every verb that
  // builds a codec rejects a block whose tables pass
  // MultisetCodec::kMaxTableBytes, naming the argument that sets it, before
  // anything is built.
  const std::pair<std::string, std::string> cases[] = {
      {"run beta 1 1 30000000 4 8", "d '30000000'"},
      {"run gamma 1 1 30000000 4 8", "d '30000000'"},
      {"run gammaw 1 1 30000000 4 8", "d '30000000'"},
      {"run beta 1 1 5000000 4 8", "d '5000000'"},
      {"explore beta 30000000 4 0101", "d '30000000'"},
      {"fuzz beta --block-override 30000000 --budget 1", "--block-override '30000000'"},
  };
  for (const auto& [command, token] : cases) {
    std::string out;
    EXPECT_EQ(run_command(command, &out), 2) << command << "\n" << out;
    EXPECT_NE(out.find("out-of-range " + token), std::string::npos) << command << "\n" << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
  // δ = 10^6 over k = 4 builds 72 MB of tables and runs.
  std::string out;
  EXPECT_EQ(run_command("run beta 1 1 1000000 4 8", &out), 0) << out;
}

TEST(Cli, AStrawmanBlockPastTheInFlightCeilingIsAUsageError) {
  // A strawman block of ceil(d/c1) packets is in flight at once under the
  // worst-case delay. `run strawman 1 1 300000000 4 8` once built a 1.2 GB
  // symbol stream and, without it, would still hold 25 million packets in
  // flight by the event cap; both exited 1 with std::bad_alloc under a
  // 1.5 GB address-space limit.
  std::string out;
  EXPECT_EQ(run_command("run strawman 1 1 300000000 4 8", &out), 2) << out;
  EXPECT_NE(out.find("out-of-range d '300000000'"), std::string::npos) << out;
  EXPECT_EQ(out.find("bad_alloc"), std::string::npos) << out;
  EXPECT_EQ(run_command("run strawman 2 2 8388610 4 8", &out), 2) << out;
  EXPECT_NE(out.find("out-of-range d '8388610'"), std::string::npos) << out;
}

TEST(Cli, BoundsRejectsAnExactCostPastItsLimitAsAUsageError) {
  // bounds computes mu and zeta exactly, at a cost quadratic in
  // min(k, ceil(d/c1)); past 20000 it names the argument that sets it, at
  // once (`bounds 1 1 4294967295 4294967295` never returned).
  const std::pair<std::string, std::string> cases[] = {
      {"bounds 1 1 4294967295 4294967295", "k '4294967295'"},
      {"bounds 1 1 20001 20001", "k '20001'"},
      {"bounds 1 1 20001 4294967295", "d '20001'"},
      {"bounds 2 3 40001 30000", "d '40001'"},
  };
  for (const auto& [command, token] : cases) {
    std::string out;
    EXPECT_EQ(run_command(command, &out), 2) << command << "\n" << out;
    EXPECT_NE(out.find("out-of-range " + token), std::string::npos) << command << "\n" << out;
  }
  std::string out;
  EXPECT_EQ(run_command("bounds 1 1 20000 20000", &out), 0) << out;
  EXPECT_NE(out.find("delta1=20000"), std::string::npos) << out;
}

TEST(Cli, MegaRejectsZeroCountsAsUsageErrors) {
  for (const std::string flag : {"--sessions", "--shards", "--max-events"}) {
    std::string out;
    EXPECT_EQ(run_command("mega " + flag + " 0", &out), 2) << flag << "\n" << out;
    EXPECT_NE(out.find("invalid " + flag + " '0'"), std::string::npos) << out;
    EXPECT_EQ(out.find("RSTP_CHECK"), std::string::npos) << out;
  }
}

TEST(Cli, MegaRunsOnlyTheShardsItHasSessionsFor) {
  // --shards 2^32 - 1 once allocated one fold per shard, each with four
  // histograms; the `mega:` line still names the requested shard count.
  std::string out;
  EXPECT_EQ(run_command("mega --sessions 8 --shards 4294967295", &out), 0) << out;
  EXPECT_NE(out.find("mega: 8 sessions on 4294967295 shards"), std::string::npos) << out;
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
  EXPECT_NE(content.find("\"name\":\"protocols.deliver\",\"cat\":\"host\",\"pid\":100"),
            std::string::npos);
  std::remove(trace_json.c_str());
}

TEST(Cli, TraceOutMatchesTheGoldenSpanTracesByteForByte) {
  // Gate: the Chrome export of a fixed-seed β run (block_encode/decode,
  // idle and write spans) and of a γ run (acks and ack_round) is pinned
  // byte for byte. RSTP_NO_TSC=1 makes otherData.host_clock read "steady".
  for (const std::string protocol : {"beta", "gamma"}) {
    const std::string golden = tests_file("golden/trace_" + protocol + ".json");
    const std::string fresh = ::testing::TempDir() + "/cli_trace_" + protocol + ".json";
    std::remove(fresh.c_str());
    const std::string command = "RSTP_NO_TSC=1 " + cli() + " run " + protocol +
                                " 1 2 6 4 32 --trace-out " + fresh + " > /dev/null 2>&1";
    ASSERT_EQ(WEXITSTATUS(std::system(command.c_str())), 0) << protocol;
    const auto bytes = [](const std::string& path) {
      std::ostringstream text;
      text << std::ifstream{path, std::ios::binary}.rdbuf();
      return text.str();
    };
    const std::string want = bytes(golden);
    ASSERT_FALSE(want.empty()) << golden;
    EXPECT_EQ(bytes(fresh), want) << protocol << " trace drifted from " << golden;
    std::remove(fresh.c_str());
  }
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
