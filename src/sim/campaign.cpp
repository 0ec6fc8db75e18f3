#include "rstp/sim/campaign.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/est/runner.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {

void CampaignSpec::validate() const {
  RSTP_CHECK(!protocols.empty(), "campaign needs at least one protocol");
  RSTP_CHECK(!timings.empty(), "campaign needs at least one timing point");
  RSTP_CHECK(!alphabets.empty(), "campaign needs at least one alphabet size");
  RSTP_CHECK(!environments.empty(), "campaign needs at least one environment");
  RSTP_CHECK_GE(seeds_per_cell, 1u, "campaign needs at least one seed per cell");
  for (const core::TimingParams& t : timings) t.validate();
  for (const std::uint32_t k : alphabets) {
    RSTP_CHECK_GE(k, 2u, "campaign alphabets need k >= 2");
  }
  for (const core::DriftSpec& drift : drifts) {
    if (!drift.empty()) drift.validate();
  }
  if (estimator_enabled) {
    estimator.validate();
    for (const protocols::ProtocolKind p : protocols) {
      RSTP_CHECK(p == protocols::ProtocolKind::Beta || p == protocols::ProtocolKind::Gamma,
                 "the estimator supports only beta and gamma");
    }
  }
}

std::size_t CampaignSpec::job_count() const {
  return protocols.size() * timings.size() * alphabets.size() * environments.size() *
         seeds_per_cell * std::max<std::size_t>(1, drifts.size());
}

DerivedSeeds derive_unit_seeds(std::uint64_t root, std::uint64_t index) {
  std::uint64_t state = root + index;
  DerivedSeeds seeds;
  seeds.environment = splitmix64(state);
  seeds.input = splitmix64(state);
  return seeds;
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) { spec_.validate(); }

CampaignJob Campaign::job(std::size_t index) const {
  RSTP_CHECK_LT(index, job_count(), "campaign job index out of range");
  // Grid order: protocol-major, seed replica fastest. The drift axis sits
  // between seed and environment; with no drifts its size is 1, so grids
  // that predate it decompose — and derive seeds — exactly as before.
  const std::size_t drift_count = std::max<std::size_t>(1, spec_.drifts.size());
  std::size_t rest = index;
  const std::size_t seed_i = rest % spec_.seeds_per_cell;
  rest /= spec_.seeds_per_cell;
  const std::size_t drift_i = rest % drift_count;
  rest /= drift_count;
  const std::size_t env_i = rest % spec_.environments.size();
  rest /= spec_.environments.size();
  const std::size_t k_i = rest % spec_.alphabets.size();
  rest /= spec_.alphabets.size();
  const std::size_t timing_i = rest % spec_.timings.size();
  rest /= spec_.timings.size();
  const std::size_t proto_i = rest;
  (void)seed_i;  // folded into the index that seeds the SplitMix64 stream

  CampaignJob job;
  job.index = index;
  job.protocol = spec_.protocols[proto_i];
  job.params = spec_.timings[timing_i];
  job.k = spec_.alphabets[k_i];
  job.environment = spec_.environments[env_i];
  if (!spec_.drifts.empty()) job.drift = spec_.drifts[drift_i];
  job.estimator_enabled = spec_.estimator_enabled;
  job.estimator = spec_.estimator;
  // Per-job deterministic streams: SplitMix64 over campaign_seed + index
  // yields the environment seed, then the input seed. A job's randomness
  // depends only on (campaign_seed, index) — never on which worker ran it.
  const DerivedSeeds seeds =
      derive_unit_seeds(spec_.campaign_seed, static_cast<std::uint64_t>(index));
  job.environment.seed = seeds.environment;
  job.input_seed = seeds.input;
  return job;
}

CampaignJobResult run_campaign_job(const CampaignJob& job, std::size_t input_bits,
                                   std::uint64_t max_events) {
  CampaignJobResult r;
  r.index = job.index;
  r.protocol = job.protocol;
  r.params = job.params;
  r.k = job.k;
  r.env_seed = job.environment.seed;
  try {
    protocols::ProtocolConfig config;
    config.params = job.params;
    config.k = protocols::alphabet_for(job.protocol, job.k, input_bits);
    config.input = core::make_random_input(input_bits, job.input_seed);
    const auto fill = [&](core::ProtocolRun&& run) {
      r.event_count = run.result.event_count;
      r.transmitter_steps = run.result.transmitter_steps;
      r.receiver_steps = run.result.receiver_steps;
      r.transmitter_sends = run.result.transmitter_sends;
      r.receiver_sends = run.result.receiver_sends;
      r.output_correct = run.output_correct;
      r.quiescent = run.result.quiescent;
      r.metrics = std::move(run.result.metrics);
      r.effort = core::effort_of(run, input_bits).effort;
    };
    if (job.estimator_enabled) {
      // Oracle + estimated runs over the same environment; the row reports
      // the estimated run (that is the protocol under test) plus the ratio.
      est::PenaltyRun pair = est::run_penalty_pair(job.protocol, config, job.environment,
                                                   job.drift, job.estimator, max_events);
      fill(std::move(pair.estimated.run));
      r.est_penalty = pair.est_penalty;
      r.est = pair.estimated.gauges;
    } else {
      // Estimator off: core::run_protocol, plus the drift axis when set.
      fill(est::run_estimated(job.protocol, config, job.environment, job.drift,
                              /*estimator_enabled=*/false, est::EstimatorConfig{},
                              SimConfig{.max_events = max_events, .record_trace = false})
               .run);
    }
  } catch (const std::exception& e) {
    r.failed = true;
    r.error = e.what();
  }
  return r;
}

CampaignResult Campaign::run(unsigned threads) const {
  const std::size_t jobs = job_count();
  CampaignResult result;
  result.jobs.resize(jobs);

  // Work stealing over the job list: each worker claims the next unclaimed
  // index and writes only its own slot, so the merged vector is in grid
  // order no matter how the OS schedules the threads. run_campaign_job
  // folds model errors into the job row; what escapes the pool is an
  // infrastructure failure (bad_alloc, spec bugs) and propagates.
  parallel_for_slots(jobs, threads, [&](std::size_t i) {
    result.jobs[i] = run_campaign_job(job(i), spec_.input_bits, spec_.max_events);
  });

  // Serial reduction in grid order: aggregates are a pure fold over the job
  // vector, so they too are bitwise reproducible across thread counts.
  struct Fold {
    CampaignAggregate& out;
    double sum = 0;
    std::size_t count = 0;
    void add(double v) {
      out.min = count == 0 ? v : std::min(out.min, v);
      out.max = count == 0 ? v : std::max(out.max, v);
      sum += v;
      out.mean = sum / static_cast<double>(++count);
    }
  };
  Fold events{result.events};
  Fold effort{result.effort};  // over jobs that sent at least once
  Fold penalty{result.est_penalty};
  for (const CampaignJobResult& r : result.jobs) {
    result.total_events += r.event_count;
    result.total_transmitter_sends += r.transmitter_sends;
    result.total_counters += r.metrics.counters;
    if (r.failed || !r.output_correct || !r.quiescent) ++result.incorrect;
    events.add(static_cast<double>(r.event_count));
    if (r.effort > 0) effort.add(r.effort);
    if (r.est_penalty > 0) penalty.add(r.est_penalty);
  }
  return result;
}

CampaignSpec golden_campaign_spec() {
  CampaignSpec spec;
  spec.protocols = {protocols::ProtocolKind::Alpha, protocols::ProtocolKind::Beta,
                    protocols::ProtocolKind::Gamma, protocols::ProtocolKind::AltBit};
  spec.timings = {core::TimingParams::make(1, 2, 6), core::TimingParams::make(2, 3, 9)};
  spec.alphabets = {4, 8};
  spec.environments = {core::Environment::worst_case(), core::Environment::randomized(1)};
  spec.seeds_per_cell = 1;
  // Small on purpose: the gate reruns this grid on every CI pass, so it must
  // stay a fraction of a second while still covering every protocol, a
  // deterministic and a randomized environment, and two timing points.
  spec.input_bits = 64;
  spec.campaign_seed = 0x601DE2;
  return spec;
}

obs::RunIdentity run_identity(protocols::ProtocolKind protocol, const core::TimingParams& params,
                              std::uint32_t k, std::uint64_t input_bits, std::uint64_t seed) {
  return {std::string{protocols::to_string(protocol)}, params.c1.ticks(), params.c2.ticks(),
          params.d.ticks(), k, input_bits, seed};
}

std::vector<obs::RunMetricsRecord> campaign_metrics_records(const CampaignResult& result,
                                                            std::size_t input_bits) {
  std::vector<obs::RunMetricsRecord> records;
  records.reserve(result.jobs.size());
  for (const CampaignJobResult& j : result.jobs) {
    obs::RunMetricsRecord record{run_identity(j.protocol, j.params, j.k, input_bits, j.env_seed)};
    record.effort = j.effort;
    record.correct = j.output_correct;
    record.quiescent = j.quiescent;
    record.metrics = j.metrics;
    record.est_penalty = j.est_penalty;
    record.est = j.est;
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace rstp::sim
