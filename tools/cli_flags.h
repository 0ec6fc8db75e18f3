// The rstp command line, described once: each verb's positional arguments
// and the flags it takes. rstp_cli.cpp parses every verb and prints every
// usage line from these tables, and cli_flag_sweep_test drives each flag
// they list.
//
// The grammar, the same for every verb: a token that starts with "--" is a
// flag, given as NAME (a switch), NAME VALUE or NAME=VALUE; every other
// token is positional. A repeated flag keeps its last value.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

#include "rstp/combinatorics/multiset_codec.h"

namespace rstp::cli {

/// How a flag takes its value, and who checks it.
enum class Kind : std::uint8_t {
  Switch,       ///< no value
  Number,       ///< a decimal integer in [min, max]; min is 0 or 1
  Alphabet,     ///< the alphabet size k: k >= 2 and k <= the codec's largest universe
  Choice,       ///< one of the '|'-separated names in `metavar`
  Text,         ///< any string; the verb parses it (a drift or --fail-on spec, a directory)
  Path,         ///< a file the verb writes; exit 4 when it cannot
  Estimator,    ///< a switch with an optional `=margin` in [0, 1); `metavar` shows it
  Unsupported,  ///< always rejected, with `metavar` as the reason; not in the usage line
};

struct Flag {
  std::string_view name;
  Kind kind = Kind::Switch;
  std::string_view metavar;  ///< shown in the usage line
  std::uint64_t min = 0;     ///< Number and Alphabet: the accepted range
  std::uint64_t max = 0;
  bool zero_is_hardware = false;  ///< 0 asks for one worker per hardware thread
};

/// The most worker threads any verb starts; 0 still means "hardware threads".
inline constexpr std::uint64_t kMaxThreads = 256;

constexpr Flag number(std::string_view name, std::uint64_t min, std::uint64_t max,
                      std::string_view metavar = "N") {
  return {name, Kind::Number, metavar, min, max};
}
constexpr Flag threads(std::string_view name) {
  return {name, Kind::Number, "N", 0, kMaxThreads, true};
}
constexpr Flag path(std::string_view name) { return {name, Kind::Path, "FILE"}; }

inline constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
inline constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();

inline constexpr Flag kRunFlags[] = {
    {"--env", Kind::Choice, "worst|fast|random|adversarial"},
    number("--seed", 0, kU64),
    path("--trace"),
    path("--trace-out"),
    {"--stats"},
    path("--metrics-out"),
    {"--timing"},
    {"--estimator", Kind::Estimator, "[=margin]"},
    {"--drift", Kind::Text, "SPEC"},
};

inline constexpr Flag kCampaignFlags[] = {
    path("--metrics-out"),
    threads("--threads"),
    {"--estimator", Kind::Estimator, "[=margin]"},
    {"--drift", Kind::Text, "SPEC"},
};

inline constexpr Flag kMegaFlags[] = {
    number("--sessions", 1, kU64),
    number("--shards", 1, kU32),
    threads("--threads"),
    {"--protocol", Kind::Choice, "alpha|beta|gamma|altbit|strawman|indexed|gammaw"},
    {"--k", Kind::Alphabet, "K", 2, combinatorics::MultisetCodec::kMaxUniverse},
    number("--bits", 0, kU32),
    number("--seed", 0, kU64),
    number("--max-events", 1, kU64),
    path("--metrics-out"),
};

inline constexpr Flag kReportFlags[] = {
    {"--json"},
    {"--fail-on", Kind::Text, "SPEC"},
};

inline constexpr Flag kFuzzFlags[] = {
    number("--seed", 0, kU64),
    number("--budget", 1, kU64),
    threads("--jobs"),
    {"--k", Kind::Alphabet, "K", 2, combinatorics::MultisetCodec::kMaxUniverse},
    number("--bits", 1, kU32),
    {"--faults"},
    {"--corpus", Kind::Text, "DIR"},
    path("--repro-out"),
    path("--metrics-out"),
    number("--wait-override", 0, kU32, "W"),
    number("--block-override", 0, kU32, "B"),
    number("--max-events", 1, kU64),
    number("--time-budget-ms", 0, kU64),
    {"--keep-going"},
};

inline constexpr Flag kAdversaryFlags[] = {
    {"--grid", Kind::Choice, "golden|quick"},
    number("--budget", 1, kU64),
    threads("--jobs"),
    number("--seed", 0, kU64),
    number("--max-events", 1, kU64),
    path("--repro-out"),
    path("--metrics-out"),
};

inline constexpr Flag kReplayFlags[] = {
    path("--trace-out"),
    {"--estimator", Kind::Unsupported, "artifacts pin the recorded constants"},
};

struct Verb {
  std::string_view name;
  std::string_view positionals;  ///< the usage line's positional arguments
  std::size_t min_positionals = 0;
  std::size_t max_positionals = 0;
  std::span<const Flag> flags;
};

inline constexpr Verb kVerbs[] = {
    {"bounds", "<c1> <c2> <d> <k>", 4, 4, {}},
    {"run", "<protocol> <c1> <c2> <d> <k> <n|bits>", 6, 6, kRunFlags},
    {"verify", "<c1> <c2> <d> <tracefile> <bits>", 5, 5, {}},
    {"explore", "<protocol> <d> <k> <bits>", 4, 4, {}},
    {"campaign", "", 0, 0, kCampaignFlags},
    {"mega", "", 0, 0, kMegaFlags},
    {"report", "<metrics.jsonl> | <old.jsonl> <new.jsonl>", 1, 2, kReportFlags},
    {"fuzz", "<protocol>", 1, 1, kFuzzFlags},
    {"adversary", "", 0, 0, kAdversaryFlags},
    {"replay", "<reprofile>", 1, 1, kReplayFlags},
};

}  // namespace rstp::cli
