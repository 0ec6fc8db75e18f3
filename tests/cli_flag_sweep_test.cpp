// Drives every (verb, flag) of the rstp flag table (tools/cli_flags.h)
// through the CLI binary, reading the table itself so the sweep cannot fall
// out of step with it. Every missing, malformed, out-of-range or unknown
// value must exit 2, every output path under a missing directory must exit
// 4, every in-range 0 must exit 0, and no run may trip a contract check or
// run out of memory. No case passes a large valid count: the base arguments
// keep each accepted run to a few milliseconds. CMake injects the binary
// path as RSTP_CLI_PATH and the tests/ source directory as RSTP_TESTS_DIR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"

namespace rstp::cli {
namespace {

struct Case {
  std::string args;
  int exit_code = 2;
  std::string message;  ///< must appear on stderr when not empty
};

std::string golden(std::string_view file) {
  return std::string{RSTP_TESTS_DIR} + "/golden/" + std::string{file};
}

/// Arguments under which every accepted value of `flag` runs in a few ms and
/// reaches the code that writes a Path flag's file.
std::string base(const Verb& verb, const Flag& flag) {
  const std::string_view v = verb.name;
  if (v == "run") return "run alpha 1 2 4 2 8";
  if (v == "mega") return "mega --sessions 8";
  // A fuzz repro is written only for a failure, and strawman fails at once.
  if (v == "fuzz") return flag.name == "--repro-out" ? "fuzz strawman --budget 16"
                                                     : "fuzz alpha --budget 1";
  if (v == "adversary") return "adversary --grid quick --budget 1";
  if (v == "report") {
    const std::string jsonl = golden("campaign_baseline.jsonl");
    return "report " + jsonl + " " + jsonl;
  }
  if (v == "replay") return "replay " + golden("broken_beta.repro");
  return std::string{v};
}

std::vector<Case> sweep_cases() {
  std::vector<Case> cases;
  for (const Verb& verb : kVerbs) {
    cases.push_back({std::string{verb.name} + " --bogus", 2, "unknown option '--bogus'"});
    for (const Flag& flag : verb.flags) {
      const std::string head = base(verb, flag) + " " + std::string{flag.name};
      // Both spellings; every token is single-quoted for the shell.
      const auto both = [&](const std::string& token, int exit_code) {
        cases.push_back({head + " '" + token + "'", exit_code, ""});
        cases.push_back({head + "='" + token + "'", exit_code, ""});
      };
      const auto missing = [&] {
        cases.push_back({head, 2, "missing value for " + std::string{flag.name}});
      };
      switch (flag.kind) {
        case Kind::Number:
        case Kind::Alphabet:
          missing();
          for (const char* token : {"", "abc", "-1", "18446744073709551616", "12x"}) both(token, 2);
          both("0", flag.min == 0 ? 0 : 2);
          if (flag.max < kU64) both(std::to_string(flag.max + 1), 2);
          if (flag.max < 4'294'967'296u) both("4294967296", 2);
          break;
        case Kind::Choice:
          missing();
          both("nope", 2);
          break;
        case Kind::Path:
          missing();
          both("/nonexistent-rstp-dir/out", 4);
          break;
        case Kind::Text:
          missing();
          break;
        case Kind::Switch:
        case Kind::Estimator:
          cases.push_back({head + "=x", 2, ""});
          break;
        case Kind::Unsupported:
          cases.push_back({head, 2, "is not supported for " + std::string{verb.name}});
          break;
      }
    }
  }
  return cases;
}

TEST(CliFlagTable, IsWellFormed) {
  for (const Verb& verb : kVerbs) {
    EXPECT_LE(verb.min_positionals, verb.max_positionals) << verb.name;
    std::set<std::string_view> names;
    for (const Flag& flag : verb.flags) {
      EXPECT_TRUE(flag.name.starts_with("--")) << verb.name << " " << flag.name;
      EXPECT_EQ(flag.name.find('='), std::string_view::npos) << flag.name;
      EXPECT_TRUE(names.insert(flag.name).second) << verb.name << " repeats " << flag.name;
      if (flag.kind != Kind::Switch) {
        EXPECT_FALSE(flag.metavar.empty()) << flag.name;
      }
      if (flag.kind == Kind::Number) {
        EXPECT_LE(flag.min, 1u) << flag.name;  // the range message names 0 only
        EXPECT_LE(flag.min, flag.max) << flag.name;
      }
      if (flag.zero_is_hardware) {
        EXPECT_EQ(flag.min, 0u) << flag.name;
        EXPECT_EQ(flag.max, kMaxThreads) << flag.name;
      }
    }
  }
}

TEST(CliFlagSweep, EveryFlagValueExitsWithTheCodeItsTableEntryImplies) {
  const std::vector<Case> cases = sweep_cases();
  const std::string script = ::testing::TempDir() + "/cli_flag_sweep.sh";
  const std::string codes = ::testing::TempDir() + "/cli_flag_sweep.codes";
  const std::string errors = ::testing::TempDir() + "/cli_flag_sweep.err";
  {
    std::ofstream out{script};
    for (std::size_t i = 0; i < cases.size(); ++i) {
      out << "echo '@@ " << i << "' >&2\n"
          << RSTP_CLI_PATH << ' ' << cases[i].args << " >/dev/null; echo $?\n";
    }
  }
  ASSERT_EQ(std::system(("sh " + script + " > " + codes + " 2> " + errors).c_str()), 0);

  // Each case's stderr, split on the "@@ i" markers.
  std::vector<std::string> stderr_of(cases.size());
  {
    std::ifstream in{errors};
    std::size_t at = 0;
    for (std::string line; std::getline(in, line);) {
      if (line.starts_with("@@ ")) {
        at = std::stoul(line.substr(3));
      } else {
        stderr_of.at(at) += line + '\n';
      }
    }
  }
  std::ifstream in{codes};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    int code = -1;
    in >> code;
    const Case& c = cases[i];
    EXPECT_EQ(code, c.exit_code) << "rstp " << c.args << "\n" << stderr_of[i];
    EXPECT_EQ(stderr_of[i].find("RSTP_CHECK"), std::string::npos) << "rstp " << c.args;
    EXPECT_EQ(stderr_of[i].find("bad_alloc"), std::string::npos) << "rstp " << c.args;
    if (!c.message.empty()) {
      EXPECT_NE(stderr_of[i].find(c.message), std::string::npos)
          << "rstp " << c.args << "\n" << stderr_of[i];
    }
  }
  std::remove(script.c_str());
  std::remove(codes.c_str());
  std::remove(errors.c_str());
}

}  // namespace
}  // namespace rstp::cli
