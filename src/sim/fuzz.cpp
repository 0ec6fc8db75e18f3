#include "rstp/sim/fuzz.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"
#include "rstp/sim/search_support.h"
#include "rstp/sim/session.h"

namespace rstp::sim {

namespace {

using protocols::ProtocolKind;

// Fingerprinting (CoverageObserver/hash_bits/hash_sorted) and the worker
// pool (parallel_for_slots) are shared with the adversary synthesizer — see
// rstp/sim/search_support.h.

[[nodiscard]] std::string kind_name(core::ViolationKind kind) {
  std::ostringstream os;
  os << kind;
  return os.str();
}

// ---------------------------------------------------------------------------
// Case generation and mutation.

/// Smallest k >= `want` that satisfies `protocol`'s alphabet constraints.
[[nodiscard]] std::uint32_t valid_k(ProtocolKind protocol, std::uint32_t want) {
  std::uint32_t k = std::max(want, 2u);
  if (protocol == ProtocolKind::WindowedGamma) {
    // Default window W=2 needs W | k and k >= 2W.
    k = std::max(k, 4u);
    if (k % 2 != 0) ++k;
  }
  return k;
}

[[nodiscard]] fault::FaultRates default_fault_rates(std::uint32_t k) {
  fault::FaultRates rates;
  rates.drop_pm = 40;
  rates.duplicate_pm = 40;
  rates.late_pm = 40;
  rates.corrupt_pm = 40;
  rates.max_duplicates = 2;
  rates.max_late = Duration{4};
  rates.corrupt_space = std::max(k, 2u);
  return rates;
}

/// Baseline width of the per-case mutation-count draw (1 + next_below(rate)).
constexpr std::uint64_t kBaseMutationRate = 3;
/// Cap on the stall-driven boost: rate never exceeds kBaseMutationRate + 5.
constexpr std::uint64_t kMaxMutationBoost = 5;

/// The canonical starting points: a few timing shapes with seeds derived
/// from (spec.seed, variant). Everything else comes from mutation.
[[nodiscard]] FuzzCase base_case(const FuzzSpec& spec, std::size_t variant) {
  static constexpr struct {
    std::int64_t c1, c2, d;
  } kTimings[] = {{1, 2, 6}, {1, 1, 4}, {2, 3, 9}, {1, 3, 7}};
  constexpr std::size_t kVariants = std::size(kTimings);

  FuzzCase c;
  c.protocol = spec.protocol;
  c.params = core::TimingParams::make(kTimings[variant % kVariants].c1,
                                      kTimings[variant % kVariants].c2,
                                      kTimings[variant % kVariants].d);
  c.k = valid_k(spec.protocol, spec.k);
  c.input_bits = std::min(32u, std::max(1u, spec.max_input_bits));
  std::uint64_t state = spec.seed ^ (0xA24BAED4963EE407ULL * (variant + 1));
  c.input_seed = splitmix64(state);
  c.sched_seed_t = splitmix64(state);
  c.sched_seed_r = splitmix64(state);
  c.delay_seed = splitmix64(state);
  c.fault_seed = splitmix64(state);
  c.block_override = spec.block_override;
  c.wait_override = spec.wait_override;
  c.max_events = spec.max_events;
  c.faults_enabled = spec.faults_enabled;
  c.rates = default_fault_rates(c.k);
  return c;
}

/// `boost` widens the mutation-count draw when the corpus has stalled
/// (consecutive zero-gain generations); at boost 0 the draw — and therefore
/// the whole RNG stream — is identical to the historical fixed-rate fuzzer,
/// so golden hunts that never stall are unchanged.
[[nodiscard]] FuzzCase mutate(const FuzzCase& parent, Rng& rng, const FuzzSpec& spec,
                              std::uint64_t boost) {
  FuzzCase c = parent;
  const std::uint64_t mutations = 1 + rng.next_below(kBaseMutationRate + boost);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    switch (rng.next_below(c.faults_enabled ? 10 : 7)) {
      case 0:
        c.input_seed = rng.next_u64();
        break;
      case 1:
        c.sched_seed_t = rng.next_u64();
        break;
      case 2:
        c.sched_seed_r = rng.next_u64();
        break;
      case 3:
        c.delay_seed = rng.next_u64();
        break;
      case 4:
        c.input_bits = 1 + static_cast<std::uint32_t>(
                               rng.next_below(std::max(1u, spec.max_input_bits)));
        break;
      case 5: {
        const std::int64_t c1 = rng.next_in(1, 4);
        const std::int64_t c2 = rng.next_in(c1, 8);
        const std::int64_t d = rng.next_in(c2, 16);
        c.params = core::TimingParams::make(c1, c2, d);
        break;
      }
      case 6:
        c.k = valid_k(c.protocol, 2 + static_cast<std::uint32_t>(rng.next_below(10)));
        break;
      case 7:
        c.fault_seed = rng.next_u64();
        break;
      case 8: {
        // Reshape the rate mix while keeping the per-mille budget legal.
        fault::FaultRates& r = c.rates;
        r.drop_pm = static_cast<std::uint32_t>(rng.next_below(120));
        r.duplicate_pm = static_cast<std::uint32_t>(rng.next_below(120));
        r.late_pm = static_cast<std::uint32_t>(rng.next_below(120));
        r.corrupt_pm = static_cast<std::uint32_t>(rng.next_below(120));
        r.max_duplicates = 1 + static_cast<std::uint32_t>(rng.next_below(3));
        r.max_late = Duration{1 + static_cast<std::int64_t>(rng.next_below(8))};
        break;
      }
      case 9:
        if (!c.pins.empty() && rng.next_bool()) {
          c.pins.pop_back();
        } else {
          fault::PinnedFault pin;
          pin.send_seq = rng.next_below(64);
          pin.kind = static_cast<fault::FaultKind>(rng.next_below(4));
          pin.arg = 1 + static_cast<std::uint32_t>(rng.next_below(8));
          c.pins.push_back(pin);
        }
        break;
    }
  }
  c.rates.corrupt_space = std::max(c.k, 2u);
  return c;
}

/// Deterministic shrink: each attempted simplification is kept only if the
/// case still fails. Bounded by O(log input_bits + |pins| + rates) reruns.
[[nodiscard]] FuzzCase minimize_failure(const FuzzCase& original) {
  FuzzCase best = original;
  const auto still_fails = [](const FuzzCase& c) { return run_fuzz_case(c).failed; };

  while (best.input_bits > 1) {
    FuzzCase cand = best;
    cand.input_bits = best.input_bits / 2;
    if (!still_fails(cand)) break;
    best = cand;
  }
  if (!best.pins.empty()) {
    FuzzCase cand = best;
    cand.pins.clear();
    if (still_fails(cand)) {
      best = cand;
    } else {
      for (std::size_t i = best.pins.size(); i-- > 0;) {
        FuzzCase one_less = best;
        one_less.pins.erase(one_less.pins.begin() + static_cast<std::ptrdiff_t>(i));
        if (still_fails(one_less)) best = one_less;
      }
    }
  }
  if (best.faults_enabled) {
    FuzzCase cand = best;
    cand.faults_enabled = false;
    cand.pins.clear();
    if (still_fails(cand)) {
      best = cand;
    } else {
      const auto try_zero = [&](std::uint32_t fault::FaultRates::* field) {
        FuzzCase zeroed = best;
        zeroed.rates.*field = 0;
        if (still_fails(zeroed)) best = zeroed;
      };
      try_zero(&fault::FaultRates::drop_pm);
      try_zero(&fault::FaultRates::duplicate_pm);
      try_zero(&fault::FaultRates::late_pm);
      try_zero(&fault::FaultRates::corrupt_pm);
    }
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// Single-case execution.

FuzzCaseResult run_fuzz_case(const FuzzCase& c, SimObserver* observer) {
  c.params.validate();
  RSTP_CHECK_GE(c.k, 2u, "fuzz case needs k >= 2");
  RSTP_CHECK_GE(c.max_events, std::uint64_t{1}, "fuzz case needs a positive event cap");
  c.rates.validate();

  FuzzCaseResult out;

  protocols::ProtocolConfig config;
  config.params = c.params;
  config.k = protocols::alphabet_for(c.protocol, c.k, c.input_bits);
  config.input = core::make_random_input(c.input_bits, c.input_seed);
  if (c.block_override != 0) config.block_size_override = c.block_override;
  if (c.wait_override != 0) config.wait_steps_override = c.wait_override;

  protocols::ProtocolInstance instance;
  try {
    instance = protocols::make_protocol(c.protocol, config);
  } catch (const ContractViolation& e) {
    // The genome violates this protocol's config contract (e.g. windowed-γ
    // alphabet shape). Not a bug — the case is simply outside the domain.
    out.invalid = true;
    out.failure = e.what();
    return out;
  }

  CoverageObserver coverage{*instance.transmitter, *instance.receiver};
  ObserverTee tee{&coverage, observer};
  SimConfig sim_config;
  sim_config.params = c.params;
  sim_config.max_events = c.max_events;
  sim_config.record_trace = true;
  sim_config.observer = tee.armed();
  Session session{
      std::move(instance),
      make_seeded_random(c.sched_seed_t, c.params),
      make_seeded_random(c.sched_seed_r, c.params),
      channel::make_uniform_random(c.delay_seed, Duration{0}, c.params.d, c.params.d),
      std::move(sim_config),
      Duration{0},
      c.faults_enabled ? std::make_unique<fault::SeededFaultInjector>(c.fault_seed, c.rates, c.pins)
                       : nullptr};

  RunResult run;
  bool completed = false;
  try {
    run = session.run();
    completed = true;
  } catch (const std::exception& e) {
    out.crashed = true;
    out.failure = e.what();
  }

  // The session's channel outlives the crashed run, so the fault log survives
  // a crash — that is what decides whether the crash is fail-stop or a bug.
  out.fault_events = session.channel().fault_log().size();
  out.fingerprints = coverage.sorted_fingerprints();
  out.coverage_hash = hash_sorted(out.fingerprints);

  if (!completed) {
    out.failed = out.fault_events == 0;  // crash on a clean channel = bug
    return out;
  }

  out.quiescent = run.quiescent;
  out.event_count = run.event_count;
  out.metrics = run.metrics;
  out.end_time = run.end_time.ticks();
  if (run.last_transmitter_send.has_value() && !config.input.empty()) {
    out.last_send = run.last_transmitter_send->ticks();
    out.effort = static_cast<double>(out.last_send) /
                 static_cast<double>(config.input.size());
  }
  out.output_hash = hash_bits(run.output);
  const core::FaultVerifyReport report =
      core::verify_trace_with_faults(run.trace, c.params, config.input, run.faults);
  out.unexcused = report.unexcused;
  out.excused = report.excused;
  out.failed = !out.unexcused.empty();
  if (out.failed) {
    std::ostringstream os;
    os << out.unexcused.size() << " unexcused: " << out.unexcused.front();
    out.failure = os.str();
  }
  return out;
}

// ---------------------------------------------------------------------------
// The campaign loop.

FuzzResult run_fuzz(const FuzzSpec& spec) {
  RSTP_CHECK_GE(spec.budget, std::uint64_t{1}, "fuzz budget must be positive");
  RSTP_CHECK_GE(spec.max_input_bits, 1u, "fuzz needs at least one input bit");

  FuzzResult res;
  std::unordered_set<std::uint64_t> seen;
  constexpr std::size_t kMaxTrackedFailures = 8;
  constexpr std::uint64_t kGenerationSize = 32;

  std::vector<FuzzCase> round;
  for (std::size_t variant = 0; variant < 4; ++variant) {
    round.push_back(base_case(spec, variant));
  }
  for (const FuzzCase& seed_case : spec.corpus_seeds) {
    round.push_back(seed_case);
  }
  if (round.size() > spec.budget) round.resize(static_cast<std::size_t>(spec.budget));
  std::uint64_t planned = round.size();

  const auto start = std::chrono::steady_clock::now();
  const auto out_of_time = [&]() {
    if (spec.time_budget_ms == 0) return false;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count() >=
           static_cast<std::int64_t>(spec.time_budget_ms);
  };

  // Mutation-rate self-tuning: each generation that folds in zero new
  // coverage bumps `stall`; any gain resets it. The next generation's
  // mutation-count draw widens to kBaseMutationRate + min(stall, cap), so a
  // plateaued corpus automatically explores bigger jumps. Pure fold-state:
  // deterministic across `jobs` like everything else here.
  std::uint64_t stall = 0;
  const auto mutation_boost = [&]() { return std::min(stall, kMaxMutationBoost); };

  // Display-only hunt progress. Published from the serial fold points, so
  // attaching on_generation cannot perturb the deterministic result state.
  std::uint64_t generation = 0;
  std::size_t crashes = 0;
  const auto emit_snapshot = [&](std::size_t coverage_gain, bool final_snapshot) {
    if (!spec.on_generation) return;
    FuzzGenerationSnapshot snap;
    snap.generation = generation;
    snap.executed = res.executed;
    snap.budget = spec.budget;
    snap.corpus = res.corpus.size();
    snap.coverage = seen.size();
    snap.coverage_gain = coverage_gain;
    snap.crashes = crashes;
    snap.failures = res.failures.size();
    snap.mutation_rate = kBaseMutationRate + mutation_boost();
    snap.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    snap.final_snapshot = final_snapshot;
    spec.on_generation(snap);
  };

  while (!round.empty()) {
    std::vector<FuzzCaseResult> results(round.size());
    parallel_for_slots(round.size(), spec.jobs,
                       [&](std::size_t i) { results[i] = run_fuzz_case(round[i]); });

    // Serial fold in slot order: corpus growth, coverage, and failure
    // collection are independent of how workers interleaved.
    const std::size_t coverage_before = seen.size();
    for (std::size_t i = 0; i < round.size(); ++i) {
      ++res.executed;
      const FuzzCaseResult& r = results[i];
      if (r.invalid) continue;
      if (r.crashed) ++crashes;
      bool fresh = false;
      for (const std::uint64_t fp : r.fingerprints) {
        if (seen.insert(fp).second) fresh = true;
      }
      if (r.failed) {
        if (res.failures.size() < kMaxTrackedFailures) {
          res.failures.push_back(FuzzFailure{round[i], round[i], r});
        }
      } else if (fresh) {
        res.corpus.push_back(round[i]);
        res.corpus_results.push_back(r);
      }
    }
    const std::size_t coverage_gain = seen.size() - coverage_before;
    if (coverage_gain == 0) {
      ++stall;
    } else {
      stall = 0;
    }
    emit_snapshot(coverage_gain, /*final_snapshot=*/false);
    ++generation;

    if (!res.failures.empty() && spec.stop_on_failure) break;
    if (planned >= spec.budget) break;
    if (out_of_time()) break;

    // Next generation: fully determined by (seed, iteration index, corpus
    // snapshot) before any parallel work starts. The generation size must
    // not depend on spec.jobs, or the corpus would evolve on a different
    // schedule at different thread counts and the campaign would diverge.
    const std::size_t batch = static_cast<std::size_t>(
        std::min<std::uint64_t>(spec.budget - planned, kGenerationSize));
    round.clear();
    for (std::size_t b = 0; b < batch; ++b) {
      std::uint64_t state = spec.seed ^ (0x9E3779B97F4A7C15ULL * (planned + b + 1));
      Rng rng{splitmix64(state)};
      const FuzzCase parent = res.corpus.empty()
                                  ? base_case(spec, b)
                                  : res.corpus[rng.next_below(res.corpus.size())];
      round.push_back(mutate(parent, rng, spec, mutation_boost()));
    }
    planned += batch;
  }

  res.coverage = seen.size();
  std::vector<std::uint64_t> all(seen.begin(), seen.end());
  std::sort(all.begin(), all.end());
  res.coverage_hash = hash_sorted(all);

  for (FuzzFailure& failure : res.failures) {
    failure.minimized = minimize_failure(failure.original);
    failure.result = run_fuzz_case(failure.minimized);
  }
  emit_snapshot(0, /*final_snapshot=*/true);
  return res;
}

// ---------------------------------------------------------------------------
// Serialization: line-oriented `key values...`, '#' comments, closed by
// `end`. Shared between corpus case files and repro files.

namespace {

constexpr std::string_view kCaseHeader = "rstp-fuzz-case-v1";
constexpr std::string_view kReproHeader = "rstp-fuzz-repro-v1";

void write_case_fields(std::ostream& os, const FuzzCase& c) {
  os << "protocol " << protocols::to_string(c.protocol) << '\n';
  os << "params " << c.params.c1.ticks() << ' ' << c.params.c2.ticks() << ' '
     << c.params.d.ticks() << '\n';
  os << "k " << c.k << '\n';
  os << "input_bits " << c.input_bits << '\n';
  os << "input_seed " << c.input_seed << '\n';
  os << "sched_seed_t " << c.sched_seed_t << '\n';
  os << "sched_seed_r " << c.sched_seed_r << '\n';
  os << "delay_seed " << c.delay_seed << '\n';
  os << "block_override " << c.block_override << '\n';
  os << "wait_override " << c.wait_override << '\n';
  os << "max_events " << c.max_events << '\n';
  os << "faults " << (c.faults_enabled ? 1 : 0) << '\n';
  os << "fault_seed " << c.fault_seed << '\n';
  os << "rates " << c.rates.drop_pm << ' ' << c.rates.duplicate_pm << ' ' << c.rates.late_pm
     << ' ' << c.rates.corrupt_pm << ' ' << c.rates.max_duplicates << ' '
     << c.rates.max_late.ticks() << ' ' << c.rates.corrupt_space << '\n';
  for (const fault::PinnedFault& pin : c.pins) {
    os << "pin " << pin.send_seq << ' ' << fault::to_string(pin.kind) << ' ' << pin.arg << '\n';
  }
}

[[noreturn]] void malformed(std::string_view what, std::string_view line) {
  std::ostringstream os;
  os << "malformed fuzz file: " << what;
  if (!line.empty()) os << " in line '" << line << "'";
  throw ModelError(os.str());
}

template <typename T>
[[nodiscard]] T read_value(std::istringstream& is, std::string_view line) {
  T value{};
  if (!(is >> value)) malformed("missing or bad value", line);
  return value;
}

/// Applies one `key values...` line to `c`; false if the key is unknown.
[[nodiscard]] bool apply_case_field(FuzzCase& c, const std::string& key,
                                    std::istringstream& is, const std::string& line) {
  if (key == "protocol") {
    std::string name;
    if (!(is >> name)) malformed("missing protocol name", line);
    const auto kind = protocols::protocol_from_string(name);
    if (!kind.has_value()) malformed("unknown protocol", line);
    c.protocol = *kind;
  } else if (key == "params") {
    const auto c1 = read_value<std::int64_t>(is, line);
    const auto c2 = read_value<std::int64_t>(is, line);
    const auto d = read_value<std::int64_t>(is, line);
    if (c1 < 1 || c2 < c1 || d < c2) malformed("params must satisfy 0 < c1 <= c2 <= d", line);
    c.params = core::TimingParams::make(c1, c2, d);
  } else if (key == "k") {
    c.k = read_value<std::uint32_t>(is, line);
  } else if (key == "input_bits") {
    c.input_bits = read_value<std::uint32_t>(is, line);
  } else if (key == "input_seed") {
    c.input_seed = read_value<std::uint64_t>(is, line);
  } else if (key == "sched_seed_t") {
    c.sched_seed_t = read_value<std::uint64_t>(is, line);
  } else if (key == "sched_seed_r") {
    c.sched_seed_r = read_value<std::uint64_t>(is, line);
  } else if (key == "delay_seed") {
    c.delay_seed = read_value<std::uint64_t>(is, line);
  } else if (key == "block_override") {
    c.block_override = read_value<std::uint32_t>(is, line);
  } else if (key == "wait_override") {
    c.wait_override = read_value<std::uint32_t>(is, line);
  } else if (key == "max_events") {
    c.max_events = read_value<std::uint64_t>(is, line);
    if (c.max_events == 0) malformed("max_events must be positive", line);
  } else if (key == "faults") {
    c.faults_enabled = read_value<std::uint32_t>(is, line) != 0;
  } else if (key == "fault_seed") {
    c.fault_seed = read_value<std::uint64_t>(is, line);
  } else if (key == "rates") {
    c.rates.drop_pm = read_value<std::uint32_t>(is, line);
    c.rates.duplicate_pm = read_value<std::uint32_t>(is, line);
    c.rates.late_pm = read_value<std::uint32_t>(is, line);
    c.rates.corrupt_pm = read_value<std::uint32_t>(is, line);
    c.rates.max_duplicates = read_value<std::uint32_t>(is, line);
    c.rates.max_late = Duration{read_value<std::int64_t>(is, line)};
    c.rates.corrupt_space = read_value<std::uint32_t>(is, line);
    try {
      c.rates.validate();
    } catch (const ContractViolation& e) {
      malformed(e.what(), line);
    }
  } else if (key == "pin") {
    fault::PinnedFault pin;
    pin.send_seq = read_value<std::uint64_t>(is, line);
    std::string name;
    if (!(is >> name)) malformed("missing pin kind", line);
    const auto kind = fault::fault_kind_from_string(name);
    if (!kind.has_value()) malformed("unknown fault kind", line);
    pin.kind = *kind;
    pin.arg = read_value<std::uint32_t>(is, line);
    c.pins.push_back(pin);
  } else {
    return false;
  }
  return true;
}

/// Strips a trailing comment and surrounding whitespace; empty = skip.
[[nodiscard]] std::string clean_line(const std::string& raw) {
  std::string line = raw;
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const std::size_t last = line.find_last_not_of(" \t\r");
  return line.substr(first, last - first + 1);
}

/// Reads the header line (skipping blanks/comments); throws on mismatch.
void expect_header(std::istream& is, std::string_view header) {
  std::string raw;
  while (std::getline(is, raw)) {
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    if (line != header) malformed("expected header", line);
    return;
  }
  malformed("empty document", "");
}

}  // namespace

void write_fuzz_case(std::ostream& os, const FuzzCase& c) {
  os << kCaseHeader << '\n';
  write_case_fields(os, c);
  os << "end\n";
}

FuzzCase parse_fuzz_case(std::istream& is) {
  expect_header(is, kCaseHeader);
  FuzzCase c;
  std::string raw;
  while (std::getline(is, raw)) {
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    if (line == "end") return c;
    std::istringstream tokens{line};
    std::string key;
    tokens >> key;
    if (!apply_case_field(c, key, tokens, line)) malformed("unknown key", line);
  }
  malformed("missing 'end'", "");
}

std::vector<FuzzCase> read_fuzz_corpus(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{dir, ec}) {
    if (entry.path().extension() == ".case") paths.push_back(entry.path());
  }
  if (ec) throw ModelError("cannot read corpus dir '" + dir + "': " + ec.message());
  std::sort(paths.begin(), paths.end());
  std::vector<FuzzCase> cases;
  cases.reserve(paths.size());
  for (const std::filesystem::path& path : paths) {
    std::ifstream in{path};
    if (!in) throw ModelError("cannot open '" + path.string() + "'");
    cases.push_back(parse_fuzz_case(in));
  }
  return cases;
}

FuzzRepro make_fuzz_repro(const FuzzCase& c, const FuzzCaseResult& result) {
  FuzzRepro repro;
  repro.fuzz_case = c;
  repro.failed = result.failed;
  repro.crashed = result.crashed;
  repro.quiescent = result.quiescent;
  repro.unexcused = result.unexcused.size();
  repro.fault_events = result.fault_events;
  for (const core::Violation& v : result.unexcused) repro.kinds.push_back(kind_name(v.kind));
  repro.output_hash = result.output_hash;
  repro.coverage_hash = result.coverage_hash;
  repro.event_count = result.event_count;
  return repro;
}

void write_fuzz_repro(std::ostream& os, const FuzzCase& c, const FuzzCaseResult& result) {
  const FuzzRepro repro = make_fuzz_repro(c, result);
  os << kReproHeader << '\n';
  write_case_fields(os, c);
  os << "expect_failed " << (repro.failed ? 1 : 0) << '\n';
  os << "expect_crashed " << (repro.crashed ? 1 : 0) << '\n';
  os << "expect_quiescent " << (repro.quiescent ? 1 : 0) << '\n';
  os << "expect_unexcused " << repro.unexcused << '\n';
  os << "expect_fault_events " << repro.fault_events << '\n';
  os << "expect_kinds " << repro.kinds.size();
  for (const std::string& kind : repro.kinds) os << ' ' << kind;
  os << '\n';
  os << "expect_output_hash " << repro.output_hash << '\n';
  os << "expect_coverage_hash " << repro.coverage_hash << '\n';
  os << "expect_events " << repro.event_count << '\n';
  os << "end\n";
}

FuzzRepro parse_fuzz_repro(std::istream& is) {
  expect_header(is, kReproHeader);
  FuzzRepro repro;
  std::string raw;
  while (std::getline(is, raw)) {
    const std::string line = clean_line(raw);
    if (line.empty()) continue;
    if (line == "end") return repro;
    std::istringstream tokens{line};
    std::string key;
    tokens >> key;
    if (key == "expect_failed") {
      repro.failed = read_value<std::uint32_t>(tokens, line) != 0;
    } else if (key == "expect_crashed") {
      repro.crashed = read_value<std::uint32_t>(tokens, line) != 0;
    } else if (key == "expect_quiescent") {
      repro.quiescent = read_value<std::uint32_t>(tokens, line) != 0;
    } else if (key == "expect_unexcused") {
      repro.unexcused = read_value<std::size_t>(tokens, line);
    } else if (key == "expect_fault_events") {
      repro.fault_events = read_value<std::size_t>(tokens, line);
    } else if (key == "expect_kinds") {
      const auto count = read_value<std::size_t>(tokens, line);
      for (std::size_t i = 0; i < count; ++i) {
        std::string name;
        if (!(tokens >> name)) malformed("missing violation kind", line);
        repro.kinds.push_back(name);
      }
    } else if (key == "expect_output_hash") {
      repro.output_hash = read_value<std::uint64_t>(tokens, line);
    } else if (key == "expect_coverage_hash") {
      repro.coverage_hash = read_value<std::uint64_t>(tokens, line);
    } else if (key == "expect_events") {
      repro.event_count = read_value<std::uint64_t>(tokens, line);
    } else if (!apply_case_field(repro.fuzz_case, key, tokens, line)) {
      malformed("unknown key", line);
    }
  }
  malformed("missing 'end'", "");
}

ReplayOutcome replay_fuzz_repro(const FuzzRepro& repro, SimObserver* observer) {
  ReplayOutcome outcome;
  outcome.result = run_fuzz_case(repro.fuzz_case, observer);
  const FuzzRepro got = make_fuzz_repro(repro.fuzz_case, outcome.result);

  const auto mismatch = [&](std::string_view field, auto got_v, auto want_v) {
    std::ostringstream os;
    os << field << ": got " << got_v << ", recorded " << want_v;
    outcome.mismatch = os.str();
  };
  if (got.failed != repro.failed) {
    mismatch("failed", got.failed, repro.failed);
  } else if (got.crashed != repro.crashed) {
    mismatch("crashed", got.crashed, repro.crashed);
  } else if (got.quiescent != repro.quiescent) {
    mismatch("quiescent", got.quiescent, repro.quiescent);
  } else if (got.unexcused != repro.unexcused) {
    mismatch("unexcused", got.unexcused, repro.unexcused);
  } else if (got.fault_events != repro.fault_events) {
    mismatch("fault_events", got.fault_events, repro.fault_events);
  } else if (got.kinds != repro.kinds) {
    mismatch("kinds", got.kinds.size(), repro.kinds.size());
  } else if (got.output_hash != repro.output_hash) {
    mismatch("output_hash", got.output_hash, repro.output_hash);
  } else if (got.coverage_hash != repro.coverage_hash) {
    mismatch("coverage_hash", got.coverage_hash, repro.coverage_hash);
  } else if (got.event_count != repro.event_count) {
    mismatch("event_count", got.event_count, repro.event_count);
  } else {
    outcome.reproduced = true;
  }
  return outcome;
}

}  // namespace rstp::sim
