// Parser-mutation sweep over the artifact grammar (ctest -L parse; also in
// -L gate, since it reads tests/golden and tests/fuzz/corpus). Seeds: the
// golden fuzz repro, the golden adversary artifact and every corpus case.
// Each line of each seed is mutated deterministically — every number
// negated, a token appended, the line deleted, the line duplicated, every
// number set to 2^64 — and every mutant must either parse and round-trip
// (parse(write(x)) == x) or throw rstp::ModelError. Any other exception is a
// failure. A value mutant that parses must also be written back with its
// mutated line intact: a reader that wraps `k -6` to 4294967290 or drops a
// trailing token fails here. The sweep only parses, so no mutant can hang
// it. The same sweep runs over a recorded timed trace (ioa::parse_trace).
// The run-metrics JSONL reader gets a seeded character- and number-level
// sweep over every line of every tests/golden/*.jsonl, plus targeted
// histogram mutants of the golden campaign baseline and wrong-type and
// repeated-key mutants of the megasession baseline, whose line must also
// write back byte for byte. The one-line spec
// parsers (DriftSpec::parse and obs::parse_thresholds) get a character-level
// sweep, and every mutant they reject must also make the CLI flag that reads
// it exit 2. CMake injects the tests/ source directory as RSTP_TESTS_DIR and
// the CLI binary as RSTP_CLI_PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/ioa/trace_io.h"
#include "rstp/obs/diff.h"
#include "rstp/obs/json.h"
#include "rstp/obs/sinks.h"
#include "rstp/sim/adversary.h"
#include "rstp/sim/fuzz.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in{path};
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::filesystem::path> seed_paths() {
  const std::filesystem::path tests{RSTP_TESTS_DIR};
  std::vector<std::filesystem::path> paths{tests / "golden/broken_beta.repro",
                                           tests / "golden/worst_case.adversary"};
  std::vector<std::filesystem::path> corpus;
  for (const auto& entry : std::filesystem::directory_iterator{tests / "fuzz/corpus"}) {
    if (entry.path().extension() == ".case") corpus.push_back(entry.path());
  }
  std::sort(corpus.begin(), corpus.end());
  paths.insert(paths.end(), corpus.begin(), corpus.end());
  return paths;
}

/// Parses `text` as the artifact kind `header` names and returns the
/// written form of the parse, after checking that parsing the written form
/// gives the same value.
template <typename T, typename Parse, typename Write>
std::string round_trip(const std::string& text, Parse parse, Write write) {
  std::istringstream in{text};
  const T first = parse(in);
  std::stringstream written;
  write(written, first);
  const std::string out = written.str();
  EXPECT_TRUE(parse(written) == first) << "parse(write(x)) != x for:\n" << text;
  return out;
}

std::string round_trip(std::string_view header, const std::string& text) {
  if (header == "rstp-fuzz-case-v1") {
    return round_trip<FuzzCase>(
        text, [](std::istream& is) { return parse_fuzz_case(is); },
        [](std::ostream& os, const FuzzCase& c) { write_fuzz_case(os, c); });
  }
  if (header == "rstp-fuzz-repro-v1") {
    return round_trip<FuzzRepro>(
        text, [](std::istream& is) { return parse_fuzz_repro(is); },
        [](std::ostream& os, const FuzzRepro& r) { write_fuzz_repro(os, r); });
  }
  EXPECT_EQ(header, adversary_repro_header());
  return round_trip<AdversaryRepro>(
      text, [](std::istream& is) { return parse_adversary_repro(is); },
      [](std::ostream& os, const AdversaryRepro& r) { write_adversary_repro(os, r); });
}

bool is_number(const std::string& token) {
  const std::size_t digits = token.rfind('-', 0) == 0 ? 1 : 0;
  return token.size() > digits &&
         std::all_of(token.begin() + static_cast<std::ptrdiff_t>(digits), token.end(),
                     [](unsigned char ch) { return std::isdigit(ch) != 0; });
}

std::vector<std::string> split(const std::string& text, bool by_line) {
  std::vector<std::string> parts;
  std::istringstream in{text};
  if (by_line) {
    for (std::string line; std::getline(in, line);) parts.push_back(line);
  } else {
    for (std::string token; in >> token;) parts.push_back(token);
  }
  return parts;
}

/// `line` without its comment, tokens joined by single spaces: how the
/// writer would spell it.
std::string normalized(const std::string& line) {
  std::string out;
  for (const std::string& token : split(line.substr(0, line.find('#')), false)) {
    out += (out.empty() ? "" : " ") + token;
  }
  return out;
}

struct Mutant {
  std::string text;
  /// For a value mutant of a key line: that line as the writer must spell
  /// it if the mutant parses. Empty for deletions and duplications.
  std::string written_line;
};

/// Every deterministic single-line mutant of `text`.
std::vector<Mutant> mutants(const std::string& text) {
  const std::vector<std::string> lines = split(text, true);
  std::vector<Mutant> out;
  const auto with_line = [&](std::size_t i, const std::vector<std::string>& replacement,
                             bool value_mutant) {
    Mutant m;
    for (std::size_t l = 0; l < lines.size(); ++l) {
      if (l != i) {
        m.text += lines[l] + '\n';
        continue;
      }
      for (const std::string& r : replacement) m.text += r + '\n';
    }
    if (value_mutant) m.written_line = normalized(replacement.front());
    out.push_back(std::move(m));
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> tokens = split(lines[i], false);
    const auto with_token = [&](std::size_t j, const std::string& value, bool value_mutant) {
      std::string line;
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        line += (t == 0 ? "" : " ") + (t == j ? value : tokens[t]);
      }
      with_line(i, {line}, value_mutant);
    };
    for (std::size_t j = 0; j < tokens.size(); ++j) {
      if (!is_number(tokens[j])) continue;
      // -0 is 0 and is written as 0: that negation changes no value.
      const bool zero = tokens[j].find_first_not_of("-0") == std::string::npos;
      with_token(j, tokens[j].front() == '-' ? tokens[j].substr(1) : "-" + tokens[j], !zero);
      with_token(j, "18446744073709551616", true);
    }
    with_line(i, {lines[i] + " 7"}, true);
    with_line(i, {}, false);
    with_line(i, {lines[i], lines[i]}, false);
  }
  return out;
}

std::string header_of(const std::string& text) {
  std::istringstream in{text};
  return read_artifact(in).header.text();
}

TEST(ArtifactParse, CheckedInSeedsRoundTrip) {
  for (const std::filesystem::path& path : seed_paths()) {
    const std::string text = read_file(path);
    (void)round_trip(header_of(text), text);
  }
}

TEST(ArtifactParse, EveryLineMutantRoundTripsOrIsAModelError) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::filesystem::path& path : seed_paths()) {
    const std::string seed = read_file(path);
    const std::string header = header_of(seed);
    for (const Mutant& mutant : mutants(seed)) {
      try {
        const std::string written = round_trip(header, mutant.text);
        if (!mutant.written_line.empty()) {
          const std::vector<std::string> lines = split(written, true);
          EXPECT_NE(std::find(lines.begin(), lines.end(), mutant.written_line), lines.end())
              << "accepted '" << mutant.written_line << "' but wrote it differently; mutant of "
              << path << ":\n" << mutant.text << "written:\n" << written;
        }
        ++accepted;
      } catch (const ModelError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-ModelError " << e.what() << " from a mutant of " << path << ":\n"
                      << mutant.text;
      }
    }
  }
  // Both outcomes occur, so the sweep exercises the accepting and the
  // rejecting paths of every reader.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}


/// Every deterministic single-character mutant of the one-line spec `seed`:
/// each character deleted, doubled, or replaced by a spec metacharacter, a
/// space or a letter, and each digit run negated or replaced by 2^64.
/// Sorted, without duplicates or the seed itself. No mutant contains a
/// quote, so each passes to the CLI inside single quotes.
std::vector<std::string> spec_mutants(const std::string& seed) {
  std::set<std::string> out;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const std::string head = seed.substr(0, i);
    out.insert(head + seed.substr(i + 1));
    out.insert(head + seed[i] + seed.substr(i));
    for (const char c : std::string_view{"-:,>=%. x"}) out.insert(head + c + seed.substr(i + 1));
    const bool run_start = std::isdigit(static_cast<unsigned char>(seed[i])) != 0 &&
                           (i == 0 || std::isdigit(static_cast<unsigned char>(seed[i - 1])) == 0);
    if (run_start) {
      const std::size_t end = std::min(seed.find_first_not_of("0123456789", i), seed.size());
      out.insert(head + "-" + seed.substr(i));
      out.insert(head + "18446744073709551616" + seed.substr(end));
    }
  }
  out.erase(seed);
  return {out.begin(), out.end()};
}

/// Checks that the CLI exits 2 when invoked with each of `args` (run in
/// one shell, in order).
void expect_cli_exits_2(const std::vector<std::string>& args) {
  const std::string script = ::testing::TempDir() + "/spec_parse_cli.sh";
  const std::string codes = ::testing::TempDir() + "/spec_parse_cli.codes";
  {
    std::ofstream out{script};
    for (const std::string& a : args) {
      out << RSTP_CLI_PATH << ' ' << a << " >/dev/null 2>&1; echo $?\n";
    }
  }
  ASSERT_EQ(std::system(("sh " + script + " > " + codes).c_str()), 0);
  std::ifstream in{codes};
  for (const std::string& a : args) {
    int code = -1;
    in >> code;
    EXPECT_EQ(code, 2) << "rstp " << a;
  }
  std::remove(script.c_str());
  std::remove(codes.c_str());
}

TEST(SpecParse, EveryDriftSpecMutantRoundTripsOrIsADriftParseError) {
  const std::string seed = "0:9,250:4,600:7";  // the golden estimator grid's drift
  ASSERT_EQ(core::DriftSpec::parse(seed).to_string(), seed);
  std::size_t accepted = 0;
  std::vector<std::string> rejected;
  for (const std::string& mutant : spec_mutants(seed)) {
    try {
      const core::DriftSpec spec = core::DriftSpec::parse(mutant);
      EXPECT_EQ(core::DriftSpec::parse(spec.to_string()), spec) << mutant;
      ++accepted;
    } catch (const core::DriftParseError&) {
      rejected.push_back(mutant);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-DriftParseError " << e.what() << " from '" << mutant << "'";
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected.size(), 0u);
  for (std::string& mutant : rejected) mutant = "run beta 1 2 6 4 8 --drift '" + mutant + "'";
  expect_cli_exits_2(rejected);
}

TEST(SpecParse, EveryThresholdMutantRoundTripsOrIsAThresholdParseError) {
  // The --fail-on examples of docs/OBSERVABILITY.md.
  const std::vector<std::string> seeds = {
      "cells_changed>0,cells_missing>0,cells_extra>0,effort_mean>1%,delay_p99>5%",
      "cells_changed>0,cells_missing>0,cells_extra>0,effort_mean>1%", "est_penalty_max>5%",
      "events_per_sec_drop>95", "gap_ratio_max>1%"};
  const auto spelled = [](const std::vector<obs::Threshold>& clauses) {
    std::string out;
    for (const obs::Threshold& t : clauses) out += (out.empty() ? "" : ",") + obs::to_string(t);
    return out;
  };
  std::set<std::string> mutants;
  for (const std::string& seed : seeds) {
    ASSERT_EQ(spelled(obs::parse_thresholds(seed)), seed);
    for (std::string& mutant : spec_mutants(seed)) mutants.insert(std::move(mutant));
  }
  std::size_t accepted = 0;
  std::vector<std::string> rejected;
  for (const std::string& mutant : mutants) {
    try {
      const std::vector<obs::Threshold> clauses = obs::parse_thresholds(mutant);
      const std::vector<obs::Threshold> again = obs::parse_thresholds(spelled(clauses));
      ASSERT_EQ(again.size(), clauses.size()) << mutant;
      for (std::size_t i = 0; i < clauses.size(); ++i) {
        EXPECT_EQ(again[i].quantity, clauses[i].quantity) << mutant;
        EXPECT_EQ(again[i].inclusive, clauses[i].inclusive) << mutant;
        EXPECT_EQ(again[i].limit, clauses[i].limit) << mutant;
        EXPECT_EQ(again[i].relative, clauses[i].relative) << mutant;
      }
      ++accepted;
    } catch (const obs::ThresholdParseError&) {
      rejected.push_back(mutant);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ThresholdParseError " << e.what() << " from '" << mutant << "'";
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected.size(), 0u);
  const std::string baseline =
      std::string{RSTP_TESTS_DIR} + "/golden/campaign_baseline.jsonl";
  for (std::string& mutant : rejected) {
    mutant = "report " + baseline + " " + baseline + " --fail-on '" + mutant + "'";
  }
  expect_cli_exits_2(rejected);
}

TEST(TraceParse, RejectsTrailingTokensAndOutOfRangeNumbers) {
  const auto rejected = [](const std::string& line) {
    EXPECT_THROW((void)ioa::parse_trace_string(line + "\n"), ModelError) << line;
  };
  EXPECT_EQ(ioa::parse_trace_string("0 0 t send tr 0\n").size(), 1u);
  EXPECT_EQ(ioa::parse_trace_string("0 0 r internal 65535 idle_r\n").size(), 1u);
  EXPECT_EQ(ioa::parse_trace_string("0 0 r internal 2\n").size(), 1u);
  rejected("0 0 t send tr 0 junk");
  rejected("0 0 t recv rt 4 4");
  rejected("0 0 r write 1 1");
  rejected("0 0 r internal 2 idle_r extra");
  rejected("0 0 r internal -1 idle_r");
  rejected("0 0 r internal 65536 idle_r");
  rejected("0 0 t send tr -1");
  rejected("0 0 t send tr 4294967296");
  rejected("-1 0 t send tr 0");
  rejected("0 9223372036854775808 t send tr 0");
  rejected("0 0 r write +1");
  rejected("0 0 t send tr");
}

TEST(TraceParse, EveryLineMutantOfARecordedTraceRoundTripsOrIsAModelError) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(16, 7);
  const core::ProtocolRun run =
      core::run_protocol(protocols::ProtocolKind::Beta, cfg, core::Environment::randomized(11));
  const std::string seed = ioa::trace_to_string(run.result.trace);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Mutant& mutant : mutants(seed)) {
    try {
      const ioa::TimedTrace parsed = ioa::parse_trace_string(mutant.text);
      const std::string written = ioa::trace_to_string(parsed);
      EXPECT_EQ(ioa::parse_trace_string(written).events(), parsed.events()) << mutant.text;
      if (!mutant.written_line.empty()) {
        const std::vector<std::string> lines = split(written, true);
        EXPECT_NE(std::find(lines.begin(), lines.end(), mutant.written_line), lines.end())
            << "accepted '" << mutant.written_line << "' but wrote it differently";
      }
      ++accepted;
    } catch (const ModelError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ModelError " << e.what() << " from the trace mutant:\n"
                    << mutant.text;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(RunMetricsParse, BrokenHistogramsAreParseErrorsNamingTheLine) {
  // The golden baseline's first record, with one histogram invariant broken
  // at a time: each must be a JsonParseError naming line 1, never the
  // contract check inside Histogram::from_parts.
  const std::string text = read_file(std::filesystem::path{RSTP_TESTS_DIR} /
                                     "golden/campaign_baseline.jsonl");
  const std::string record = text.substr(0, text.find('\n'));
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = record;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  {
    std::istringstream in{record + "\n"};
    EXPECT_EQ(obs::read_run_metrics_jsonl(in).size(), 1u);
  }
  for (const std::string& broken :
       {replaced("\"max\"", "\"m01ax\""), replaced("\"width\":1", "\"width\":0"),
        replaced("\"buckets\":[0,0,0,0,0,0,64]", "\"buckets\":[]"),
        replaced("\"count\":64", "\"count\":65"),
        replaced("\"buckets\":[0,0,0,0,0,0,64]",
                 "\"buckets\":[18446744073709551615,1,0,0,0,0,64]")}) {
    std::istringstream in{broken + "\n"};
    try {
      (void)obs::read_run_metrics_jsonl(in);
      ADD_FAILURE() << "accepted " << broken;
    } catch (const obs::JsonParseError& e) {
      EXPECT_NE(std::string{e.what()}.find("line 1: histogram data_delay"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunMetricsParse, UnknownKeysAreParseErrorsNamingTheLineAndTheKey) {
  // A golden baseline's first record with one key renamed at each level: a
  // reader that dropped the field would read it as its default.
  struct Case {
    const char* golden;
    std::string key;
    std::string renamed;
    std::string where;
  };
  const Case cases[] = {
      {"campaign_baseline.jsonl", "protocol", "protocl", "record"},
      {"campaign_baseline.jsonl", "writes", "wriets", "counters"},
      {"estimator_baseline.jsonl", "d_hat", "dhat", "est"},
      {"campaign_baseline.jsonl", "ack_delay", "ack_dly", "hist"},
      {"campaign_baseline.jsonl", "p95", "p96", "histogram data_delay"},
  };
  for (const Case& c : cases) {
    const std::string text =
        read_file(std::filesystem::path{RSTP_TESTS_DIR} / "golden" / c.golden);
    std::string record = text.substr(0, text.find('\n'));
    const std::size_t at = record.find("\"" + c.key + "\":");
    ASSERT_NE(at, std::string::npos) << c.key;
    record.replace(at + 1, c.key.size(), c.renamed);
    std::istringstream in{record + "\n"};
    try {
      (void)obs::read_run_metrics_jsonl(in);
      ADD_FAILURE() << "accepted " << c.renamed;
    } catch (const obs::JsonParseError& e) {
      const std::string want = "line 1: " + c.where + ": unknown key \"" + c.renamed + "\"";
      EXPECT_NE(std::string{e.what()}.find(want), std::string::npos) << e.what();
    }
  }
}

TEST(RunMetricsParse, AKAbove32BitsIsAParseErrorNamingTheLine) {
  // The golden baseline's first record ("k":4) with k set past 2^32-1: the
  // reader once wrapped 4294967300 to 4 and `rstp report` printed k = 4.
  const std::string text = read_file(std::filesystem::path{RSTP_TESTS_DIR} /
                                     "golden/campaign_baseline.jsonl");
  const std::string record = text.substr(0, text.find('\n'));
  const auto with_k = [&](const std::string& k) {
    std::string out = record;
    const std::size_t at = out.find("\"k\":4,");
    EXPECT_NE(at, std::string::npos);
    return at == std::string::npos ? out : out.replace(at, 6, "\"k\":" + k + ",");
  };
  {
    std::istringstream in{with_k("4294967295") + "\n"};
    EXPECT_EQ(obs::read_run_metrics_jsonl(in).at(0).k, 4294967295u);
  }
  const std::string wrapped = with_k("4294967300");
  std::istringstream in{wrapped + "\n"};
  try {
    (void)obs::read_run_metrics_jsonl(in);
    ADD_FAILURE() << "accepted " << wrapped;
  } catch (const obs::JsonParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 1: k 4294967300"), std::string::npos) << e.what();
  }
  const std::string path = ::testing::TempDir() + "/k_above_32_bits.jsonl";
  {
    std::ofstream out{path};
    out << wrapped << '\n';
  }
  expect_cli_exits_2({"report " + path});
  std::remove(path.c_str());
}

TEST(RunMetricsParse, AKnownKeyOfTheWrongTypeIsAParseErrorNamingTheLineAndTheKey) {
  // The megasession baseline's line with one known key given a value of the
  // wrong JSON type. The reader once read each as the field's default: seed
  // 0 (so the cell no longer joined), correct NO, events 0, no histograms,
  // and an "est" number ignored. Both report forms must exit 2.
  const std::string text = read_file(std::filesystem::path{RSTP_TESTS_DIR} /
                                     "golden/megasession_baseline.jsonl");
  const std::string record = text.substr(0, text.find('\n'));
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = record;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  const std::size_t hist = record.find("\"hist\":");
  const std::size_t est = record.find("\"est\":");
  ASSERT_NE(hist, std::string::npos);
  ASSERT_NE(est, std::string::npos);
  const std::string est_object = record.substr(est, record.find('}', est) + 1 - est);
  struct Case {
    std::string line;
    std::string error;
  };
  const Case cases[] = {
      {replaced("\"seed\":15978", "\"seed\":\"15978\""), "key \"seed\" must be a number"},
      {replaced("\"correct\":true", "\"correct\":1"),
       "key \"correct\" must be true or false"},
      {replaced("\"events\":5740000", "\"events\":\"5740000\""),
       "key \"events\" must be a number"},
      {record.substr(0, hist) + "\"hist\":[]}", "key \"hist\" must be an object"},
      {replaced(est_object, "\"est\":5"), "key \"est\" must be an object"},
  };
  std::vector<std::string> cli_args;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    std::istringstream in{c.line + "\n"};
    try {
      (void)obs::read_run_metrics_jsonl(in);
      ADD_FAILURE() << "accepted " << c.line;
    } catch (const obs::JsonParseError& e) {
      EXPECT_NE(std::string{e.what()}.find("line 1: " + c.error), std::string::npos) << e.what();
    }
    const std::string path = ::testing::TempDir() + "/wrong_type_" + std::to_string(i) + ".jsonl";
    std::ofstream{path} << c.line << '\n';
    cli_args.push_back("report " + path);
    cli_args.push_back("report " + path + " " + path);
  }
  expect_cli_exits_2(cli_args);
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    std::remove((::testing::TempDir() + "/wrong_type_" + std::to_string(i) + ".jsonl").c_str());
  }
  // A histogram may still be null, as the writer writes an unconfigured one.
  std::istringstream null_histogram{
      replaced(record.substr(record.find("\"data_delay\":"),
                             record.find("\"ack_delay\":") - 1 - record.find("\"data_delay\":")),
               "\"data_delay\":null") +
      "\n"};
  EXPECT_FALSE(obs::read_run_metrics_jsonl(null_histogram).at(0).metrics.data_delay.configured());
}

TEST(RunMetricsParse, ARepeatedKeyIsAParseErrorNamingTheLineAndTheKey) {
  // The megasession baseline's line with one key repeated at each level. The
  // reader once read the first of the two and dropped the other: "seed"
  // read as 15978 and `rstp report` printed the row and exited 0. Both
  // report forms must exit 2.
  const std::string text = read_file(std::filesystem::path{RSTP_TESTS_DIR} /
                                     "golden/megasession_baseline.jsonl");
  const std::string record = text.substr(0, text.find('\n'));
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = record;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? out : out.replace(at, from.size(), to);
  };
  struct Case {
    std::string line;
    std::string error;
  };
  const Case cases[] = {
      {replaced("\"seed\":15978", "\"seed\":15978,\"seed\":99"),
       "record: duplicate key \"seed\""},
      {replaced("\"schema\":\"rstp-run-metrics-v1\"",
                "\"schema\":\"rstp-run-metrics-v1\",\"schema\":\"rstp-run-metrics-v1\""),
       "record: duplicate key \"schema\""},
      {replaced("\"d_hat\":0", "\"d_hat\":0,\"d_hat\":7"), "est: duplicate key \"d_hat\""},
      {replaced("\"events\":5740000", "\"events\":5740000,\"events\":1"),
       "counters: duplicate key \"events\""},
      {replaced("\"hist\":{", "\"hist\":{\"ack_delay\":null,"),
       "hist: duplicate key \"ack_delay\""},
      {replaced("\"p95\":4", "\"p95\":4,\"p95\":5"),
       "histogram data_delay: duplicate key \"p95\""},
  };
  std::vector<std::string> cli_args;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    std::istringstream in{c.line + "\n"};
    try {
      (void)obs::read_run_metrics_jsonl(in);
      ADD_FAILURE() << "accepted " << c.line;
    } catch (const obs::JsonParseError& e) {
      EXPECT_NE(std::string{e.what()}.find("line 1: " + c.error), std::string::npos) << e.what();
    }
    const std::string path = ::testing::TempDir() + "/repeated_key_" + std::to_string(i) + ".jsonl";
    std::ofstream{path} << c.line << '\n';
    cli_args.push_back("report " + path);
    cli_args.push_back("report " + path + " " + path);
  }
  expect_cli_exits_2(cli_args);
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    std::remove((::testing::TempDir() + "/repeated_key_" + std::to_string(i) + ".jsonl").c_str());
  }
}

TEST(RunMetricsParse, EveryGoldenMetricsFileParses) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator{std::filesystem::path{RSTP_TESTS_DIR} / "golden"}) {
    if (entry.path().extension() != ".jsonl") continue;
    ++files;
    std::istringstream in{read_file(entry.path())};
    EXPECT_FALSE(obs::read_run_metrics_jsonl(in).empty()) << entry.path();
  }
  EXPECT_GT(files, 0u);
}

TEST(RunMetricsParse, TheFullSchemaGoldenWritesBackByteForByte) {
  // megasession_baseline.jsonl is the one golden written in the full current
  // schema: reading it and writing it back must give the same bytes, key
  // order and number spellings included.
  const std::string text = read_file(std::filesystem::path{RSTP_TESTS_DIR} /
                                     "golden/megasession_baseline.jsonl");
  std::istringstream in{text};
  std::ostringstream written;
  for (const obs::RunMetricsRecord& r : obs::read_run_metrics_jsonl(in)) {
    obs::write_run_metrics_jsonl(written, r);
  }
  EXPECT_EQ(written.str(), text);
}

/// The seeded single-line mutants of one JSONL line: for each of a few
/// draws, one character deleted, one duplicated and one swapped for each of
/// `"`, `{`, `]` and `,`, plus the line truncated; and every number outside a
/// string negated and set to 2^64. `salt` seeds the draws, so the sweep is
/// the same on every run.
std::vector<std::string> jsonl_mutants(const std::string& line, std::uint64_t salt) {
  std::vector<std::string> out;
  if (line.empty()) return out;
  std::uint64_t state = salt;
  Rng rng{splitmix64(state)};
  constexpr int kDraws = 8;
  for (int draw = 0; draw < kDraws; ++draw) {
    const auto at = static_cast<std::size_t>(rng.next_below(line.size()));
    out.push_back(line.substr(0, at) + line.substr(at + 1));
    out.push_back(line.substr(0, at) + line[at] + line.substr(at));
    for (const char c : std::string_view{"\"{],"}) {
      out.push_back(line.substr(0, at) + c + line.substr(at + 1));
    }
    out.push_back(line.substr(0, static_cast<std::size_t>(rng.next_below(line.size()))));
  }
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      continue;
    }
    if (c != '-' && std::isdigit(static_cast<unsigned char>(c)) == 0) continue;
    const std::size_t end = std::min(line.find_first_not_of("0123456789+-.eE", i), line.size());
    const std::string number = line.substr(i, end - i);
    const std::string head = line.substr(0, i);
    const std::string tail = line.substr(end);
    out.push_back(head + (number.front() == '-' ? number.substr(1) : "-" + number) + tail);
    out.push_back(head + "18446744073709551616" + tail);
    i = end - 1;
  }
  return out;
}

TEST(RunMetricsParse, EveryJsonlLineMutantRoundTripsOrIsAJsonParseError) {
  // The whole JSON input surface: read_run_metrics_jsonl parses each line
  // with parse_json. Every mutant of every line of every golden JSONL file
  // is either a record that writes back and rereads to itself, or a
  // JsonParseError naming the line (and, for a syntax error, parse_json's
  // byte offset). Any other exception fails the sweep.
  std::vector<std::filesystem::path> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator{std::filesystem::path{RSTP_TESTS_DIR} / "golden"}) {
    if (entry.path().extension() == ".jsonl") goldens.push_back(entry.path());
  }
  std::sort(goldens.begin(), goldens.end());
  ASSERT_FALSE(goldens.empty());

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t f = 0; f < goldens.size(); ++f) {
    const std::vector<std::string> lines = split(read_file(goldens[f]), true);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      for (const std::string& mutant : jsonl_mutants(lines[l], (f << 32) ^ l)) {
        try {
          std::istringstream in{mutant + "\n"};
          const std::vector<obs::RunMetricsRecord> records = obs::read_run_metrics_jsonl(in);
          std::stringstream written;
          for (const obs::RunMetricsRecord& r : records) obs::write_run_metrics_jsonl(written, r);
          EXPECT_TRUE(obs::read_run_metrics_jsonl(written) == records)
              << "reread(write(x)) != x for a mutant of " << goldens[f] << ":" << l + 1 << ":\n"
              << mutant;
          ++accepted;
        } catch (const obs::JsonParseError& e) {
          const std::string what = e.what();
          EXPECT_EQ(what.rfind("line 1: ", 0), 0u) << what;
          if (what.find("JSON parse error") != std::string::npos) {
            EXPECT_NE(what.find(" at byte "), std::string::npos) << what;
          }
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "read_run_metrics_jsonl threw a non-JsonParseError " << e.what()
                        << " on a mutant of " << goldens[f] << ":" << l + 1 << ":\n" << mutant;
        }
      }
    }
  }
  // Both outcomes occur, so the sweep reaches the accepting and the
  // rejecting paths of the reader.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace rstp::sim
