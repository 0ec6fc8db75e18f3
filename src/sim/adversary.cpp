#include "rstp/sim/adversary.h"

#include <algorithm>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/search_support.h"
#include "rstp/sim/session.h"

namespace rstp::sim {

namespace {

using channel::ScheduleGenome;
using protocols::ProtocolKind;

/// Replays the process half of a genome: first offset, then cyclic gaps.
class GenomeScheduler final : public StepScheduler {
 public:
  GenomeScheduler(Duration first, std::vector<Duration> gaps)
      : first_(first), gaps_(std::move(gaps)) {
    RSTP_CHECK(!gaps_.empty(), "genome scheduler needs at least one gap");
  }
  [[nodiscard]] Duration first_offset() override { return first_; }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override {
    return gaps_[(step_index - 1) % gaps_.size()];
  }

 private:
  Duration first_;
  std::vector<Duration> gaps_;
};

/// Longest cyclic table the mutator will grow; keeps genomes (and their
/// minimized artifacts) small while still expressing periodic adversaries
/// far beyond the hand-coded one-entry policies.
constexpr std::size_t kMaxTable = 16;
constexpr std::uint64_t kMaxOrderKey = 64;
/// Artifact tables hold at least one and at most this many entries.
constexpr std::size_t kMaxArtifactTable = 4096;

/// `rate` is the search loop's mutation-count draw width (search_support.h).
[[nodiscard]] ScheduleGenome mutate_genome(const ScheduleGenome& parent, Rng& rng,
                                           const core::TimingParams& params,
                                           std::uint64_t rate) {
  ScheduleGenome g = parent;
  const auto pick = [&](std::size_t size) { return rng.next_below(size); };
  const auto resize_table = [&](auto& table, auto fill) {
    if (rng.next_bool() && table.size() > 1) {
      table.pop_back();
    } else if (table.size() < kMaxTable) {
      table.push_back(fill());
    }
  };
  const std::uint64_t mutations = 1 + rng.next_below(rate);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    switch (rng.next_below(10)) {
      case 0:
        g.delays[pick(g.delays.size())] = rng.next_duration(Duration{0}, params.d);
        break;
      case 1:
        // Exploit move: latest-possible delivery is the hand adversary's own
        // trick; re-injecting it keeps mutated genomes near the optimum.
        g.delays[pick(g.delays.size())] = params.d;
        break;
      case 2:
        g.order_keys[pick(g.order_keys.size())] = rng.next_below(kMaxOrderKey);
        break;
      case 3:
        g.t_gaps[pick(g.t_gaps.size())] = rng.next_duration(params.c1, params.c2);
        break;
      case 4:
        g.r_gaps[pick(g.r_gaps.size())] = rng.next_duration(params.c1, params.c2);
        break;
      case 5:
        // Exploit move: slowest legal stepping maximizes per-step cost.
        if (rng.next_bool()) {
          g.t_gaps[pick(g.t_gaps.size())] = params.c2;
        } else {
          g.r_gaps[pick(g.r_gaps.size())] = params.c2;
        }
        break;
      case 6:
        resize_table(g.delays, [&] { return rng.next_duration(Duration{0}, params.d); });
        break;
      case 7:
        resize_table(g.order_keys, [&] { return rng.next_below(kMaxOrderKey); });
        break;
      case 8:
        if (rng.next_bool()) {
          resize_table(g.t_gaps, [&] { return rng.next_duration(params.c1, params.c2); });
        } else {
          resize_table(g.r_gaps, [&] { return rng.next_duration(params.c1, params.c2); });
        }
        break;
      case 9:
        if (rng.next_bool()) {
          g.t_first = rng.next_duration(Duration{0}, params.c2);
        } else {
          g.r_first = rng.next_duration(Duration{0}, params.c2);
        }
        break;
    }
  }
  return g;
}

/// Generation-0 population: the hand-coded floor plus a few structurally
/// distinct corners of the legal space (fast stepping, instant delivery,
/// maximum jitter).
[[nodiscard]] std::vector<ScheduleGenome> seed_genomes(const core::TimingParams& params) {
  std::vector<ScheduleGenome> out;
  out.push_back(hand_equivalent_genome(params));

  ScheduleGenome fast = out.front();
  fast.t_gaps = {params.c1};
  fast.r_gaps = {params.c1};
  out.push_back(fast);

  ScheduleGenome instant = out.front();
  instant.delays = {Duration{0}};
  out.push_back(instant);

  ScheduleGenome jitter;
  jitter.delays = {params.d, Duration{0}};
  jitter.order_keys = {1, 0};
  jitter.t_gaps = {params.c1, params.c2};
  jitter.r_gaps = {params.c2, params.c1};
  out.push_back(jitter);
  return out;
}

[[nodiscard]] std::uint64_t hash_genome(std::uint64_t h, const ScheduleGenome& g) {
  h = fnv_mix(h, g.delays.size());
  for (const Duration d : g.delays) h = fnv_mix(h, static_cast<std::uint64_t>(d.ticks()));
  h = fnv_mix(h, g.order_keys.size());
  for (const std::uint64_t key : g.order_keys) h = fnv_mix(h, key);
  h = fnv_mix(h, static_cast<std::uint64_t>(g.t_first.ticks()));
  h = fnv_mix(h, static_cast<std::uint64_t>(g.r_first.ticks()));
  h = fnv_mix(h, g.t_gaps.size());
  for (const Duration d : g.t_gaps) h = fnv_mix(h, static_cast<std::uint64_t>(d.ticks()));
  h = fnv_mix(h, g.r_gaps.size());
  for (const Duration d : g.r_gaps) h = fnv_mix(h, static_cast<std::uint64_t>(d.ticks()));
  return h;
}

/// Deterministic shrink of the winning genome: each simplification is kept
/// only if the re-evaluated fitness stays >= the incumbent (never worse than
/// hand-coded, since that was the floor). Bounded by O(Σ log |table|) reruns.
[[nodiscard]] ScheduleGenome minimize_genome(const AdversaryCell& cell, std::uint64_t input_seed,
                                             ScheduleGenome best, std::int64_t best_fitness,
                                             std::uint64_t max_events) {
  const auto at_least_as_fit = [&](const ScheduleGenome& g) {
    const GenomeEval eval = evaluate_genome(cell, input_seed, g, max_events);
    return eval.fit() && eval.last_send >= best_fitness;
  };
  const auto shrink_table = [&](auto ScheduleGenome::* table) {
    while ((best.*table).size() > 1) {
      ScheduleGenome cand = best;
      auto& t = cand.*table;
      t.resize((t.size() + 1) / 2);
      if (!at_least_as_fit(cand)) break;
      best = std::move(cand);
    }
  };
  shrink_table(&ScheduleGenome::delays);
  shrink_table(&ScheduleGenome::order_keys);
  shrink_table(&ScheduleGenome::t_gaps);
  shrink_table(&ScheduleGenome::r_gaps);
  {
    ScheduleGenome cand = best;
    std::fill(cand.order_keys.begin(), cand.order_keys.end(), std::uint64_t{0});
    if (at_least_as_fit(cand)) best = std::move(cand);
  }
  {
    ScheduleGenome cand = best;
    cand.t_first = Duration{0};
    cand.r_first = Duration{0};
    if (at_least_as_fit(cand)) best = std::move(cand);
  }
  return best;
}

[[nodiscard]] double cell_lower_bound(const AdversaryCell& cell) {
  const core::BoundsReport bounds = core::compute_bounds(cell.params, cell.k);
  return protocols::is_r_passive(cell.protocol) ? bounds.passive_lower : bounds.active_lower;
}

}  // namespace

channel::ScheduleGenome hand_equivalent_genome(const core::TimingParams& params) {
  ScheduleGenome g;
  g.delays = {params.d};
  g.order_keys = {0};
  g.t_first = Duration{0};
  g.r_first = Duration{0};
  g.t_gaps = {params.c2};
  g.r_gaps = {params.c2};
  return g;
}

GenomeEval evaluate_genome(const AdversaryCell& cell, std::uint64_t input_seed,
                           const channel::ScheduleGenome& genome, std::uint64_t max_events) {
  cell.params.validate();
  RSTP_CHECK_GE(cell.k, 2u, "adversary cell needs k >= 2");
  RSTP_CHECK_GE(cell.input_bits, 1u, "adversary cell needs at least one input bit");

  GenomeEval out;

  protocols::ProtocolConfig config;
  config.params = cell.params;
  config.k = protocols::alphabet_for(cell.protocol, cell.k, cell.input_bits);
  config.input = core::make_random_input(cell.input_bits, input_seed);

  protocols::ProtocolInstance instance;
  try {
    instance = protocols::make_protocol(cell.protocol, config);
  } catch (const ContractViolation&) {
    return out;  // cell outside the protocol's config domain
  }

  CoverageObserver coverage{*instance.transmitter, *instance.receiver};
  SimConfig sim_config;
  sim_config.params = cell.params;
  sim_config.max_events = max_events;
  sim_config.record_trace = false;
  sim_config.observer = &coverage;
  Session session{std::move(instance),
                  std::make_unique<GenomeScheduler>(genome.t_first, genome.t_gaps),
                  std::make_unique<GenomeScheduler>(genome.r_first, genome.r_gaps),
                  channel::make_synthesized(genome, cell.params), std::move(sim_config)};

  RunResult run;
  try {
    run = session.run();
  } catch (const std::exception&) {
    // A legal genome crashing a paper protocol is the fuzzer's department;
    // here it simply scores as unfit.
    return out;
  }

  out.valid = true;
  out.correct = run.output == config.input;
  out.quiescent = run.quiescent;
  if (run.last_transmitter_send.has_value()) {
    out.last_send = run.last_transmitter_send->ticks();
    out.effort = static_cast<double>(out.last_send) / static_cast<double>(cell.input_bits);
  }
  out.end_time = run.end_time.ticks();
  out.output_hash = hash_bits(run.output);
  out.event_count = run.event_count;
  out.fingerprints = coverage.sorted_fingerprints();
  out.coverage_hash = hash_sorted(out.fingerprints);
  return out;
}

AdversaryResult run_adversary_search(const AdversarySpec& spec) {
  RSTP_CHECK(!spec.grid.empty(), "adversary search needs at least one cell");
  RSTP_CHECK_GE(spec.budget, std::uint64_t{1}, "adversary budget must be positive");

  AdversaryResult res;
  std::uint64_t result_hash = kFnvOffset;

  for (std::size_t cell_index = 0; cell_index < spec.grid.size(); ++cell_index) {
    const AdversaryCell& cell = spec.grid[cell_index];
    cell.params.validate();
    std::uint64_t state = spec.seed ^ (0xA0761D6478BD642FULL * (cell_index + 1));
    const std::uint64_t cell_seed = splitmix64(state);
    const std::uint64_t input_seed = splitmix64(state);

    AdversaryCellResult cr;
    cr.cell = cell;
    cr.input_seed = input_seed;
    cr.lower_bound = cell_lower_bound(cell);

    std::vector<ScheduleGenome> corpus;
    ScheduleGenome best_genome = hand_equivalent_genome(cell.params);
    GenomeEval best;  // unfit until the generation-0 fold
    bool have_best = false;

    // Generation 0 folds the hand genome first, so `best` starts at the hand
    // floor; each bred slot mutates a corpus entry or the elite.
    const std::vector<std::uint64_t> coverage = run_generations(
        GenerationPlan{cell_seed, spec.budget, 16, spec.jobs}, seed_genomes(cell.params),
        [&](const ScheduleGenome& g) {
          return evaluate_genome(cell, input_seed, g, spec.max_events);
        },
        [&](const ScheduleGenome& g, const GenomeEval& eval, bool fresh) {
          ++cr.executed;
          if (fresh) corpus.push_back(g);
          if (eval.fit() && (!have_best || eval.last_send > best.last_send)) {
            best = eval;
            best_genome = g;
            have_best = true;
          }
        },
        [](const GenerationTally&) { return false; },
        [&](Rng& rng, std::size_t, std::uint64_t rate) {
          const bool from_corpus = !corpus.empty() && rng.next_bool();
          const ScheduleGenome& parent =
              from_corpus ? corpus[rng.next_below(corpus.size())] : best_genome;
          return mutate_genome(parent, rng, cell.params, rate);
        });
    // The hand genome is generation 0's first fold, and paper protocols are
    // correct on all of good(A) — `best` can only be unfit if the event cap
    // truncated even the hand run (a misconfigured spec, surfaced below by
    // beats_hand() = false rather than by a throw).
    const GenomeEval hand =
        evaluate_genome(cell, input_seed, hand_equivalent_genome(cell.params), spec.max_events);
    cr.hand_last_send = hand.last_send;
    cr.hand_effort = hand.effort;
    if (have_best) {
      best_genome =
          minimize_genome(cell, input_seed, best_genome, best.last_send, spec.max_events);
      best = evaluate_genome(cell, input_seed, best_genome, spec.max_events);
    }
    cr.best_genome = best_genome;
    cr.best = best;
    cr.gap_ratio = cr.lower_bound > 0 ? cr.best.effort / cr.lower_bound : 0;
    cr.coverage = coverage.size();

    result_hash = fnv_mix(result_hash, static_cast<std::uint64_t>(cr.best.last_send));
    result_hash = fnv_mix(result_hash, cr.best.output_hash);
    result_hash = fnv_mix(result_hash, cr.best.event_count);
    result_hash = fnv_mix(result_hash, cr.best.coverage_hash);
    result_hash = fnv_mix(result_hash, static_cast<std::uint64_t>(cr.hand_last_send));
    result_hash = fnv_mix(result_hash, cr.executed);
    result_hash = fnv_mix(result_hash, cr.coverage);
    result_hash = hash_genome(result_hash, cr.best_genome);

    res.cells.push_back(std::move(cr));
  }

  res.result_hash = result_hash;
  return res;
}

std::vector<AdversaryCell> golden_adversary_grid() {
  static constexpr struct {
    std::int64_t c1, c2, d;
  } kTimings[] = {{1, 2, 6}, {2, 3, 9}};
  static constexpr std::uint32_t kAlphabets[] = {2, 6};

  std::vector<AdversaryCell> grid;
  for (const ProtocolKind protocol : protocols::kPaperProtocolKinds) {
    for (const auto& t : kTimings) {
      for (const std::uint32_t k : kAlphabets) {
        AdversaryCell cell;
        cell.protocol = protocol;
        cell.params = core::TimingParams::make(t.c1, t.c2, t.d);
        cell.k = k;
        cell.input_bits = 24;
        grid.push_back(cell);
      }
    }
  }
  return grid;
}

std::vector<AdversaryCell> quick_adversary_grid() {
  std::vector<AdversaryCell> grid;
  for (const ProtocolKind protocol : protocols::kPaperProtocolKinds) {
    AdversaryCell cell;
    cell.protocol = protocol;
    cell.params = core::TimingParams::make(1, 2, 6);
    cell.k = 4;
    cell.input_bits = 16;
    grid.push_back(cell);
  }
  return grid;
}

std::vector<obs::RunMetricsRecord> adversary_metrics_records(const AdversaryResult& result,
                                                             std::uint64_t seed) {
  std::vector<obs::RunMetricsRecord> out;
  out.reserve(result.cells.size());
  for (const AdversaryCellResult& cr : result.cells) {
    obs::RunMetricsRecord record{
        run_identity(cr.cell.protocol, cr.cell.params, cr.cell.k, cr.cell.input_bits, seed)};
    record.effort = cr.best.effort;
    record.gap_ratio = cr.gap_ratio;
    record.end_time = cr.best.end_time;
    record.correct = cr.best.correct;
    record.quiescent = cr.best.quiescent;
    out.push_back(std::move(record));
  }
  return out;
}

// ---------------------------------------------------------------------------
// `rstp-adversary-v1` serialization: the fields only this artifact kind carries.

namespace {

constexpr std::string_view kAdversaryHeader = "rstp-adversary-v1";

/// `count v…` with 1 <= count <= kMaxArtifactTable, each entry from read().
template <typename Read>
[[nodiscard]] auto read_table(ArtifactLine& line, Read read) {
  const auto count = line.read_value<std::size_t>();
  if (count == 0 || count > kMaxArtifactTable) line.reject("table size out of range");
  std::vector<decltype(read())> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(read());
  return out;
}

}  // namespace

std::string_view adversary_repro_header() { return kAdversaryHeader; }

AdversaryRepro make_adversary_repro(const AdversaryCellResult& cell_result,
                                    std::uint64_t max_events) {
  AdversaryRepro repro;
  repro.cell = cell_result.cell;
  repro.input_seed = cell_result.input_seed;
  repro.max_events = max_events;
  repro.genome = cell_result.best_genome;
  repro.expect_last_send = cell_result.best.last_send;
  repro.expect_output_hash = cell_result.best.output_hash;
  repro.expect_events = cell_result.best.event_count;
  repro.expect_correct = cell_result.best.correct;
  repro.expect_quiescent = cell_result.best.quiescent;
  return repro;
}

void write_adversary_repro(std::ostream& os, const AdversaryRepro& repro) {
  const auto ticks = [](Duration d) { return d.ticks(); };
  ArtifactWriter w{os, kAdversaryHeader};
  write_cell_keys(w, repro.cell.protocol, repro.cell.params, repro.cell.k, repro.cell.input_bits,
                  repro.input_seed);
  w.field("max_events", repro.max_events);
  w.field("t_first", repro.genome.t_first.ticks());
  w.field("r_first", repro.genome.r_first.ticks());
  w.table("t_gaps", repro.genome.t_gaps, ticks);
  w.table("r_gaps", repro.genome.r_gaps, ticks);
  w.table("delays", repro.genome.delays, ticks);
  w.table("order_keys", repro.genome.order_keys);
  w.field("expect_last_send", repro.expect_last_send);
  w.field("expect_output_hash", repro.expect_output_hash);
  w.field("expect_events", repro.expect_events);
  w.field("expect_correct", repro.expect_correct ? 1 : 0);
  w.field("expect_quiescent", repro.expect_quiescent ? 1 : 0);
  w.end();
}

AdversaryRepro parse_adversary_repro(std::istream& is) {
  return parse_adversary_repro(read_artifact(is));
}

AdversaryRepro parse_adversary_repro(ArtifactDocument doc) {
  AdversaryRepro repro;
  const ArtifactCell cell{repro.cell.protocol,   repro.cell.params, repro.cell.k,
                          repro.cell.input_bits, repro.input_seed,  repro.max_events};
  read_artifact_fields(doc, kAdversaryHeader, cell, [&](ArtifactLine& line) {
    const std::string& key = line.key();
    const auto ticks = [&line] { return Duration{line.read_value<std::int64_t>()}; };
    if (key == "t_first") {
      repro.genome.t_first = ticks();
    } else if (key == "r_first") {
      repro.genome.r_first = ticks();
    } else if (key == "t_gaps") {
      repro.genome.t_gaps = read_table(line, ticks);
    } else if (key == "r_gaps") {
      repro.genome.r_gaps = read_table(line, ticks);
    } else if (key == "delays") {
      repro.genome.delays = read_table(line, ticks);
    } else if (key == "order_keys") {
      repro.genome.order_keys =
          read_table(line, [&line] { return line.read_value<std::uint64_t>(); });
    } else if (key == "expect_last_send") {
      repro.expect_last_send = line.read_value<std::int64_t>();
    } else if (key == "expect_output_hash") {
      repro.expect_output_hash = line.read_value<std::uint64_t>();
    } else if (key == "expect_events") {
      repro.expect_events = line.read_value<std::uint64_t>();
    } else if (key == "expect_correct") {
      repro.expect_correct = line.read_value<std::uint32_t>() != 0;
    } else if (key == "expect_quiescent") {
      repro.expect_quiescent = line.read_value<std::uint32_t>() != 0;
    } else {
      return false;
    }
    return true;
  });
  // The genome must be legal for the declared params — an artifact that
  // smuggles an out-of-model schedule is rejected here, not at run time.
  channel::validate_genome(repro.genome, repro.cell.params);
  return repro;
}

AdversaryReplayOutcome replay_adversary_repro(const AdversaryRepro& repro) {
  AdversaryReplayOutcome outcome;
  outcome.eval = evaluate_genome(repro.cell, repro.input_seed, repro.genome, repro.max_events);

  ReplayCheck check{outcome.mismatch};
  check.expect_equal("last_send", outcome.eval.last_send, repro.expect_last_send);
  check.expect_equal("output_hash", outcome.eval.output_hash, repro.expect_output_hash);
  check.expect_equal("event_count", outcome.eval.event_count, repro.expect_events);
  check.expect_equal("correct", outcome.eval.correct, repro.expect_correct);
  check.expect_equal("quiescent", outcome.eval.quiescent, repro.expect_quiescent);
  outcome.reproduced = outcome.mismatch.empty();
  return outcome;
}

}  // namespace rstp::sim
