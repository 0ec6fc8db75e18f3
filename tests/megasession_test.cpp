// Tests for the million-session engine (sim/multi_session.h), whose shards
// run their sessions back to back: bitwise-identical folds across thread
// counts AND shard counts, field equality against N independent
// core::run_protocol runs with the same derived seeds (capped and uncapped,
// for every protocol), the flattened metrics record, and reproduction of the
// checked-in golden megasession baseline (ctest labels `mega`, `threads`).
#include "rstp/sim/multi_session.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/obs/diff.h"

namespace rstp::sim {
namespace {

using protocols::ProtocolKind;

/// Small enough to run in milliseconds, varied enough to exercise every
/// session-construction path: randomized schedulers/delivery (so per-session
/// seed derivation matters) over the Alpha worst-case-capable cell.
MultiSessionSpec small_spec() {
  MultiSessionSpec spec;
  spec.protocol = ProtocolKind::Alpha;
  spec.params.c1 = Duration{1};
  spec.params.c2 = Duration{2};
  spec.params.d = Duration{4};
  spec.k = 2;
  spec.input_bits = 16;
  spec.environment = core::Environment::randomized(0);  // seed is re-derived
  spec.sessions = 64;
  spec.base_seed = 0xBEEF;
  spec.shards = 16;
  return spec;
}

TEST(MultiSessionSpec, ValidateRejectsDegenerateSpecs) {
  MultiSessionSpec spec = small_spec();
  spec.sessions = 0;
  EXPECT_THROW(MultiSession{spec}, ContractViolation);
  spec = small_spec();
  spec.shards = 0;
  EXPECT_THROW(MultiSession{spec}, ContractViolation);
  spec = small_spec();
  spec.k = 1;
  EXPECT_THROW(MultiSession{spec}, ContractViolation);
  spec = small_spec();
  spec.max_events_per_session = 0;
  EXPECT_THROW(MultiSession{spec}, ContractViolation);
}

TEST(MultiSession, ThreadCountsProduceBitwiseIdenticalFolds) {
  const MultiSession mega{small_spec()};
  const MultiSessionResult serial = mega.run(1);
  const MultiSessionResult three = mega.run(3);
  const MultiSessionResult eight = mega.run(8);

  EXPECT_EQ(serial.sessions, 64u);
  EXPECT_TRUE(serial.all_correct());
  EXPECT_TRUE(serial.same_simulation(three));
  EXPECT_TRUE(serial.same_simulation(eight));
  // same_simulation covers the histogram fold too, but make the bitwise
  // claim explicit for the metrics block.
  EXPECT_EQ(serial.metrics, three.metrics);
  EXPECT_EQ(serial.metrics, eight.metrics);
}

TEST(MultiSession, ShardCountDoesNotChangeTheFold) {
  MultiSessionSpec spec = small_spec();
  const MultiSession sixteen{spec};
  const MultiSessionResult reference = sixteen.run(2);
  for (const std::uint32_t shards : {1u, 5u, 64u, 200u}) {  // 200 > sessions
    spec.shards = shards;
    const MultiSession mega{spec};
    EXPECT_TRUE(reference.same_simulation(mega.run(2))) << "shards=" << shards;
  }
}

TEST(MultiSession, ShardsPastTheSessionCountAreNeverAllocated) {
  // One fold per requested shard would be 2^32 - 1 folds here; the engine
  // runs min(shards, sessions) of them, so this is the one-shard fold.
  MultiSessionSpec spec = small_spec();
  spec.sessions = 3;
  spec.shards = 1;
  const MultiSessionResult reference = MultiSession{spec}.run(1);
  spec.shards = 4'294'967'295u;
  EXPECT_TRUE(reference.same_simulation(MultiSession{spec}.run(1)));
}

/// The reference for one spec: N standalone single-session runs, seeded
/// exactly as the engine documents (derive_unit_seeds over base_seed +
/// session id), folded in session order with the same integer-tick effort
/// accumulation, then checked field by field against the engine's fold.
void expect_matches_independent_runs(const MultiSessionSpec& spec,
                                     const MultiSessionResult& result) {
  std::uint64_t correct = 0;
  std::uint64_t quiescent = 0;
  std::uint64_t total_events = 0;
  std::uint64_t effort_sessions = 0;
  std::uint64_t effort_ticks_sum = 0;
  std::int64_t effort_ticks_min = 0;
  std::int64_t effort_ticks_max = 0;
  obs::RunMetrics metrics;
  bool metrics_valid = false;
  for (std::uint64_t s = 0; s < spec.sessions; ++s) {
    const DerivedSeeds seeds = derive_unit_seeds(spec.base_seed, s);
    protocols::ProtocolConfig config;
    config.params = spec.params;
    config.k = spec.k;
    config.input = core::make_random_input(spec.input_bits, seeds.input);
    core::Environment env = spec.environment;
    env.seed = seeds.environment;
    const core::ProtocolRun run = core::run_protocol(
        spec.protocol, config, env, /*record_trace=*/false, spec.max_events_per_session);
    if (run.output_correct) ++correct;
    if (run.result.quiescent) ++quiescent;
    total_events += run.result.event_count;
    if (run.result.last_transmitter_send.has_value()) {
      const std::int64_t ticks = (*run.result.last_transmitter_send - Time::zero()).ticks();
      if (ticks > 0) {
        if (effort_sessions == 0) {
          effort_ticks_min = effort_ticks_max = ticks;
        } else {
          effort_ticks_min = std::min(effort_ticks_min, ticks);
          effort_ticks_max = std::max(effort_ticks_max, ticks);
        }
        effort_ticks_sum += static_cast<std::uint64_t>(ticks);
        ++effort_sessions;
      }
    }
    if (!metrics_valid) {
      metrics = run.result.metrics;
      metrics_valid = true;
    } else {
      metrics.counters += run.result.metrics.counters;
      metrics.data_delay.merge(run.result.metrics.data_delay);
      metrics.ack_delay.merge(run.result.metrics.ack_delay);
      metrics.transmitter_gap.merge(run.result.metrics.transmitter_gap);
      metrics.receiver_gap.merge(run.result.metrics.receiver_gap);
    }
  }

  EXPECT_EQ(result.sessions, spec.sessions);
  EXPECT_EQ(result.correct_sessions, correct);
  EXPECT_EQ(result.quiescent_sessions, quiescent);
  EXPECT_EQ(result.total_events, total_events);
  EXPECT_EQ(result.metrics, metrics);
  if (effort_sessions == 0) {
    EXPECT_EQ(result.effort, CampaignAggregate{});
    return;
  }
  const auto bits = static_cast<double>(spec.input_bits);
  EXPECT_DOUBLE_EQ(result.effort.min, static_cast<double>(effort_ticks_min) / bits);
  EXPECT_DOUBLE_EQ(result.effort.max, static_cast<double>(effort_ticks_max) / bits);
  EXPECT_DOUBLE_EQ(result.effort.mean, static_cast<double>(effort_ticks_sum) /
                                           (bits * static_cast<double>(effort_sessions)));
}

TEST(MultiSession, MatchesNIndependentRunProtocolCalls) {
  struct Cell {
    ProtocolKind protocol;
    core::Environment environment;
  };
  const Cell cells[] = {
      {ProtocolKind::Alpha, core::Environment::randomized(0)},
      {ProtocolKind::Beta, core::Environment::worst_case()},
      {ProtocolKind::Gamma, core::Environment::randomized(0)},
  };
  // Uncapped, and a cap every session hits long before it could finish.
  constexpr std::uint64_t kCap = 5;
  for (const Cell& cell : cells) {
    for (const bool capped : {false, true}) {
      MultiSessionSpec spec = small_spec();
      spec.protocol = cell.protocol;
      spec.environment = cell.environment;
      if (cell.protocol != ProtocolKind::Alpha) spec.k = 4;
      if (capped) spec.max_events_per_session = kCap;
      SCOPED_TRACE(std::string{protocols::to_string(cell.protocol)} +
                   (capped ? " capped" : " uncapped"));
      const MultiSessionResult result = MultiSession{spec}.run(3);
      expect_matches_independent_runs(spec, result);
      if (capped) {
        // Every session stops at the first dispatch boundary at or past the
        // cap. A delivery batch is one dispatch, so a session whose batch
        // straddles the cap records more events than the cap: the γ row
        // records 322 events for 64 sessions × 5.
        EXPECT_EQ(result.quiescent_sessions, 0u);
        EXPECT_GE(result.total_events, spec.sessions * kCap);
        if (cell.protocol != ProtocolKind::Gamma) {
          EXPECT_EQ(result.total_events, spec.sessions * kCap);
        }
      } else {
        EXPECT_TRUE(result.all_correct());
        EXPECT_GT(result.effort.mean, 0.0);  // the effort fold saw senders
      }
    }
  }
}

TEST(MultiSession, EveryProtocolHostsCleanly) {
  // Indexed needs k >= 2|X|: the engine raises k as every other session
  // builder does (protocols::alphabet_for), so the requested k = 4 runs.
  for (const ProtocolKind kind :
       {ProtocolKind::Alpha, ProtocolKind::Beta, ProtocolKind::Gamma, ProtocolKind::AltBit,
        ProtocolKind::Indexed, ProtocolKind::WindowedGamma, ProtocolKind::Strawman}) {
    MultiSessionSpec spec = small_spec();
    spec.protocol = kind;
    spec.k = 4;
    spec.sessions = 8;
    spec.shards = 3;
    // The order-sensitive strawman decodes only under FIFO delivery; random
    // delays reorder its packets by design (experiment E7).
    if (kind == ProtocolKind::Strawman) spec.environment = core::Environment::worst_case();
    const MultiSessionResult result = MultiSession{spec}.run(2);
    EXPECT_TRUE(result.all_correct()) << protocols::to_string(kind);
    EXPECT_GT(result.total_events, 0u) << protocols::to_string(kind);
  }
}

TEST(MultiSession, RecordCarriesTheSessionSchemaFields) {
  const MultiSessionSpec spec = small_spec();
  const MultiSessionResult result = MultiSession{spec}.run(2);
  const obs::RunMetricsRecord record = multi_session_metrics_record(spec, result);
  EXPECT_EQ(record.protocol, "alpha");
  EXPECT_EQ(record.sessions, spec.sessions);
  EXPECT_EQ(record.seed, spec.base_seed);
  EXPECT_EQ(record.input_bits, spec.input_bits);
  EXPECT_TRUE(record.correct);
  EXPECT_TRUE(record.quiescent);
  EXPECT_DOUBLE_EQ(record.effort, result.effort.mean);
  EXPECT_GT(record.events_per_sec, 0.0);
  EXPECT_EQ(record.metrics, result.metrics);
}

/// The checked-in baseline gate: rerunning the golden megasession cell must
/// reproduce every simulation-derived quantity of
/// tests/golden/megasession_baseline.jsonl exactly, through the same join
/// `rstp report --fail-on` performs. Only the events_per_sec aggregates
/// (wall clock by definition) may move, and only down to the
/// `events_per_sec_drop>95` floor: a throughput collapse of more than 20x
/// against the recorded machine (accidental serialization, not machine
/// variance) trips it.
TEST(MegasessionGolden, BaselineReproducesExactly) {
  std::ifstream in{RSTP_GOLDEN_MEGASESSION_BASELINE_PATH};
  ASSERT_TRUE(in) << "missing " << RSTP_GOLDEN_MEGASESSION_BASELINE_PATH
                  << " — regenerate with: rstp mega --sessions 10000 --metrics-out <path>";
  const std::vector<obs::RunMetricsRecord> baseline = obs::read_run_metrics_jsonl(in);
  ASSERT_EQ(baseline.size(), 1u);

  const MultiSessionSpec spec = golden_megasession_spec();
  const MultiSessionResult result = MultiSession{spec}.run(3);
  EXPECT_TRUE(result.all_correct());
  const std::vector<obs::RunMetricsRecord> fresh = {multi_session_metrics_record(spec, result)};

  const obs::DiffReport report = obs::diff_metrics(baseline, fresh);
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
  for (const obs::CellDiff& cell : report.cells) {
    for (const obs::QuantityDelta& d : cell.deltas) {
      ADD_FAILURE() << "golden megasession drift: " << d.name << " " << d.old_v << " -> "
                    << d.new_v;
    }
  }
  for (const obs::QuantityDelta& agg : report.aggregates) {
    if (agg.name.rfind("events_per_sec", 0) == 0) continue;  // wall clock
    EXPECT_FALSE(agg.changed()) << agg.name << " " << agg.old_v << " -> " << agg.new_v;
  }
  for (const obs::ThresholdViolation& v :
       obs::evaluate_thresholds(report, obs::parse_thresholds("events_per_sec_drop>95"))) {
    ADD_FAILURE() << "golden megasession throughput: " << v.threshold.source
                  << " tripped, events/sec fell " << v.observed << "%";
  }
}

}  // namespace
}  // namespace rstp::sim
