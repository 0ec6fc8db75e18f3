#include "rstp/sim/fuzz.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"
#include "rstp/sim/search_support.h"
#include "rstp/sim/session.h"

namespace rstp::sim {

namespace {

using protocols::ProtocolKind;

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

/// `rate` is the search loop's mutation-count draw width (search_support.h).
[[nodiscard]] FuzzCase mutate(const FuzzCase& parent, Rng& rng, const FuzzSpec& spec,
                              std::uint64_t rate) {
  FuzzCase c = parent;
  const std::uint64_t mutations = 1 + rng.next_below(rate);
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

  // The verifier checks the run online, so no trace is recorded.
  CoverageObserver coverage{*instance.transmitter, *instance.receiver};
  core::TraceChecker checker{c.params, config.input};
  ObserverTee checked{&checker, observer};
  ObserverTee tee{&coverage, checked.armed()};
  SimConfig sim_config;
  sim_config.params = c.params;
  sim_config.max_events = c.max_events;
  sim_config.record_trace = false;
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
  const core::FaultVerifyReport report = core::verify_with_faults(checker, run.faults);
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
  constexpr std::size_t kMaxTrackedFailures = 8;

  std::vector<FuzzCase> round;
  for (std::size_t variant = 0; variant < 4; ++variant) {
    round.push_back(base_case(spec, variant));
  }
  round.insert(round.end(), spec.corpus_seeds.begin(), spec.corpus_seeds.end());

  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> coverage = run_generations(
      GenerationPlan{spec.seed, spec.budget, 32, spec.jobs}, std::move(round),
      [](const FuzzCase& c) { return run_fuzz_case(c); },
      [&](const FuzzCase& c, const FuzzCaseResult& r, bool fresh) {
        ++res.executed;
        if (r.invalid) return;
        if (r.failed) {
          if (res.failures.size() < kMaxTrackedFailures) {
            res.failures.push_back(FuzzFailure{c, c, r});
          }
        } else if (fresh) {
          res.corpus.push_back(c);
          res.corpus_results.push_back(r);
        }
      },
      [&](const GenerationTally&) {
        // Whole elapsed milliseconds, compared unsigned: converting a budget
        // past 2^63 ms (or past the clock's nanosecond range) to a chrono
        // duration would overflow.
        const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
        const bool out_of_time = spec.time_budget_ms != 0 &&
                                 static_cast<std::uint64_t>(elapsed_ms) >= spec.time_budget_ms;
        return (!res.failures.empty() && spec.stop_on_failure) || out_of_time;
      },
      [&](Rng& rng, std::size_t slot, std::uint64_t rate) {
        const FuzzCase parent = res.corpus.empty()
                                    ? base_case(spec, slot)
                                    : res.corpus[rng.next_below(res.corpus.size())];
        return mutate(parent, rng, spec, rate);
      });
  res.coverage = coverage.size();
  res.coverage_hash = hash_sorted(coverage);

  for (FuzzFailure& failure : res.failures) {
    failure.minimized = minimize_failure(failure.original);
    failure.result = run_fuzz_case(failure.minimized);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Serialization: the fields only the fuzz artifact kinds carry.

namespace {

constexpr std::string_view kCaseHeader = "rstp-fuzz-case-v1";
constexpr std::string_view kReproHeader = "rstp-fuzz-repro-v1";

void write_case_fields(ArtifactWriter& w, const FuzzCase& c) {
  write_cell_keys(w, c.protocol, c.params, c.k, c.input_bits, c.input_seed);
  w.field("sched_seed_t", c.sched_seed_t);
  w.field("sched_seed_r", c.sched_seed_r);
  w.field("delay_seed", c.delay_seed);
  w.field("block_override", c.block_override);
  w.field("wait_override", c.wait_override);
  w.field("max_events", c.max_events);
  w.field("faults", c.faults_enabled ? 1 : 0);
  w.field("fault_seed", c.fault_seed);
  w.field("rates", c.rates.drop_pm, c.rates.duplicate_pm, c.rates.late_pm, c.rates.corrupt_pm,
          c.rates.max_duplicates, c.rates.max_late.ticks(), c.rates.corrupt_space);
  for (const fault::PinnedFault& pin : c.pins) {
    w.field("pin", pin.send_seq, fault::to_string(pin.kind), pin.arg);
  }
}

[[nodiscard]] ArtifactCell cell_of(FuzzCase& c) {
  return {c.protocol, c.params, c.k, c.input_bits, c.input_seed, c.max_events};
}

/// Applies one case-only `key values...` line to `c`; false if the key is unknown.
[[nodiscard]] bool apply_case_field(FuzzCase& c, ArtifactLine& line) {
  const std::string& key = line.key();
  if (key == "sched_seed_t") {
    c.sched_seed_t = line.read_value<std::uint64_t>();
  } else if (key == "sched_seed_r") {
    c.sched_seed_r = line.read_value<std::uint64_t>();
  } else if (key == "delay_seed") {
    c.delay_seed = line.read_value<std::uint64_t>();
  } else if (key == "block_override") {
    c.block_override = line.read_value<std::uint32_t>();
  } else if (key == "wait_override") {
    c.wait_override = line.read_value<std::uint32_t>();
  } else if (key == "faults") {
    c.faults_enabled = line.read_value<std::uint32_t>() != 0;
  } else if (key == "fault_seed") {
    c.fault_seed = line.read_value<std::uint64_t>();
  } else if (key == "rates") {
    c.rates.drop_pm = line.read_value<std::uint32_t>();
    c.rates.duplicate_pm = line.read_value<std::uint32_t>();
    c.rates.late_pm = line.read_value<std::uint32_t>();
    c.rates.corrupt_pm = line.read_value<std::uint32_t>();
    c.rates.max_duplicates = line.read_value<std::uint32_t>();
    c.rates.max_late = Duration{line.read_value<std::int64_t>()};
    c.rates.corrupt_space = line.read_value<std::uint32_t>();
    try {
      c.rates.validate();
    } catch (const ContractViolation& e) {
      line.reject(e.what());
    }
  } else if (key == "pin") {
    fault::PinnedFault pin;
    pin.send_seq = line.read_value<std::uint64_t>();
    const auto kind = fault::fault_kind_from_string(line.read_word());
    if (!kind.has_value()) line.reject("unknown fault kind");
    pin.kind = *kind;
    pin.arg = line.read_value<std::uint32_t>();
    c.pins.push_back(pin);
  } else {
    return false;
  }
  return true;
}

}  // namespace

void write_fuzz_case(std::ostream& os, const FuzzCase& c) {
  ArtifactWriter w{os, kCaseHeader};
  write_case_fields(w, c);
  w.end();
}

FuzzCase parse_fuzz_case(std::istream& is) {
  ArtifactDocument doc = read_artifact(is);
  FuzzCase c;
  read_artifact_fields(doc, kCaseHeader, cell_of(c),
                       [&](ArtifactLine& line) { return apply_case_field(c, line); });
  return c;
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
  write_fuzz_repro(os, make_fuzz_repro(c, result));
}

void write_fuzz_repro(std::ostream& os, const FuzzRepro& repro) {
  ArtifactWriter w{os, kReproHeader};
  write_case_fields(w, repro.fuzz_case);
  w.field("expect_failed", repro.failed ? 1 : 0);
  w.field("expect_crashed", repro.crashed ? 1 : 0);
  w.field("expect_quiescent", repro.quiescent ? 1 : 0);
  w.field("expect_unexcused", repro.unexcused);
  w.field("expect_fault_events", repro.fault_events);
  w.table("expect_kinds", repro.kinds);
  w.field("expect_output_hash", repro.output_hash);
  w.field("expect_coverage_hash", repro.coverage_hash);
  w.field("expect_events", repro.event_count);
  w.end();
}

FuzzRepro parse_fuzz_repro(std::istream& is) { return parse_fuzz_repro(read_artifact(is)); }

FuzzRepro parse_fuzz_repro(ArtifactDocument doc) {
  FuzzRepro repro;
  read_artifact_fields(doc, kReproHeader, cell_of(repro.fuzz_case), [&](ArtifactLine& line) {
    const std::string& key = line.key();
    if (key == "expect_failed") {
      repro.failed = line.read_value<std::uint32_t>() != 0;
    } else if (key == "expect_crashed") {
      repro.crashed = line.read_value<std::uint32_t>() != 0;
    } else if (key == "expect_quiescent") {
      repro.quiescent = line.read_value<std::uint32_t>() != 0;
    } else if (key == "expect_unexcused") {
      repro.unexcused = line.read_value<std::size_t>();
    } else if (key == "expect_fault_events") {
      repro.fault_events = line.read_value<std::size_t>();
    } else if (key == "expect_kinds") {
      const auto count = line.read_value<std::size_t>();
      repro.kinds.clear();
      for (std::size_t i = 0; i < count; ++i) repro.kinds.push_back(line.read_word());
    } else if (key == "expect_output_hash") {
      repro.output_hash = line.read_value<std::uint64_t>();
    } else if (key == "expect_coverage_hash") {
      repro.coverage_hash = line.read_value<std::uint64_t>();
    } else if (key == "expect_events") {
      repro.event_count = line.read_value<std::uint64_t>();
    } else {
      return apply_case_field(repro.fuzz_case, line);
    }
    return true;
  });
  return repro;
}

ReplayOutcome replay_fuzz_repro(const FuzzRepro& repro, SimObserver* observer) {
  ReplayOutcome outcome;
  outcome.result = run_fuzz_case(repro.fuzz_case, observer);
  const FuzzRepro got = make_fuzz_repro(repro.fuzz_case, outcome.result);

  ReplayCheck check{outcome.mismatch};
  check.expect_equal("failed", got.failed, repro.failed);
  check.expect_equal("crashed", got.crashed, repro.crashed);
  check.expect_equal("quiescent", got.quiescent, repro.quiescent);
  check.expect_equal("unexcused", got.unexcused, repro.unexcused);
  check.expect_equal("fault_events", got.fault_events, repro.fault_events);
  check.expect("kinds", got.kinds == repro.kinds, got.kinds.size(), repro.kinds.size());
  check.expect_equal("output_hash", got.output_hash, repro.output_hash);
  check.expect_equal("coverage_hash", got.coverage_hash, repro.coverage_hash);
  check.expect_equal("event_count", got.event_count, repro.event_count);
  outcome.reproduced = outcome.mismatch.empty();
  return outcome;
}

}  // namespace rstp::sim
