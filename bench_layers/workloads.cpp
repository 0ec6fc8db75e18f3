#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>

#include "rstp/api/link.h"
#include "rstp/combinatorics/block_coder.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/multi_session.h"
#include "rstp/sim/simulator.h"

namespace rstp::bench {

namespace {

using Clock = std::chrono::steady_clock;
using protocols::ProtocolKind;
using Scope = SpanRecorder::Scope;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed of one input stream (base seed, campaign seed, payload bytes),
/// derived from the benchmark seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9E37'79B9'7F4A'7C15ULL + stream;
  return splitmix64(state);
}

std::size_t heap_bytes_in_use() { return mallinfo2().uordblks; }

/// Passes of the back-to-back untraced timings in a traced run: a workload
/// of a few milliseconds needs several for a steady median.
constexpr int kCostPasses = 10;

/// Block size the β/γ automata derive from their timing (0: no codec).
std::uint32_t codec_delta(ProtocolKind kind, const core::TimingParams& params) {
  switch (kind) {
    case ProtocolKind::Beta:
      return static_cast<std::uint32_t>(params.delta1_wait());
    case ProtocolKind::Gamma:
      return static_cast<std::uint32_t>(params.delta2());
    default:
      return 0;
  }
}

// --- Traced replay plumbing -----------------------------------------------------

/// One session wired as core::run_protocol and MultiSession wire it — same
/// construction order, same seed draws.
struct Session {
  protocols::ProtocolInstance instance;
  std::unique_ptr<TimedAutomaton> timed_transmitter;  ///< null when built untimed
  std::unique_ptr<TimedAutomaton> timed_receiver;     ///< null when built untimed
  std::unique_ptr<sim::StepScheduler> t_sched;
  std::unique_ptr<sim::StepScheduler> r_sched;
  std::unique_ptr<channel::Channel> channel;
  std::optional<sim::Simulator> sim;
};

/// Where a timed session records. Without one a session is built bare.
struct Timing {
  SpanRecorder& recorder;
  Layers& layers;
};

/// What a replay measured beyond the layer aggregates.
struct ReplayTotals {
  Layers layers;
  double in_flight_sum = 0;  ///< Σ packets in flight after each dispatch
};

/// Builds `s`; with `timing`, every interface the simulator drives is
/// wrapped in a timing decorator and the construction itself is timed.
void build_session(Session& s, ProtocolKind kind, const protocols::ProtocolConfig& config,
                   const core::Environment& env, sim::SimConfig sim_config, const Timing* timing) {
  std::optional<Scope> scope;
  if (timing != nullptr) scope.emplace(timing->recorder, timing->layers.setup, "session.setup");
  {
    std::optional<Scope> make;
    if (timing != nullptr) {
      make.emplace(timing->recorder, timing->layers.make_protocol, "protocols.make_protocol");
    }
    s.instance = protocols::make_protocol(kind, config);
  }
  Rng seeder{env.seed};
  s.t_sched = core::make_scheduler(env.transmitter_sched, config.params, seeder.next_u64());
  s.r_sched = core::make_scheduler(env.receiver_sched, config.params, seeder.next_u64());
  std::unique_ptr<channel::DeliveryPolicy> policy =
      core::make_delivery_policy(env.delay, config.params, seeder.next_u64());
  ioa::Automaton* transmitter = s.instance.transmitter.get();
  ioa::Automaton* receiver = s.instance.receiver.get();
  if (timing != nullptr) {
    s.t_sched = std::make_unique<TimedScheduler>(std::move(s.t_sched), timing->recorder,
                                                 timing->layers);
    s.r_sched = std::make_unique<TimedScheduler>(std::move(s.r_sched), timing->recorder,
                                                 timing->layers);
    policy = std::make_unique<TimedPolicy>(std::move(policy), timing->recorder, timing->layers);
    s.timed_transmitter =
        std::make_unique<TimedAutomaton>(*transmitter, timing->recorder, timing->layers);
    s.timed_receiver = std::make_unique<TimedAutomaton>(*receiver, timing->recorder, timing->layers);
    transmitter = s.timed_transmitter.get();
    receiver = s.timed_receiver.get();
  }
  s.channel = std::make_unique<channel::Channel>(config.params.d, std::move(policy));
  s.sim.emplace(*transmitter, *receiver, *s.channel, *s.t_sched, *s.r_sched,
                std::move(sim_config));
}

void start(Session& s, SpanRecorder& recorder, Layers& layers) {
  const Scope scope{recorder, layers.start, "sim.simulator.start"};
  s.sim->start();
}

void advance(Session& s, SpanRecorder& recorder, ReplayTotals& totals) {
  {
    const Scope scope{recorder, totals.layers.advance, "sim.simulator.advance"};
    s.sim->advance();
  }
  totals.in_flight_sum += static_cast<double>(s.channel->in_flight());
}

std::optional<Time> next_instant(Session& s, SpanRecorder& recorder, Layers& layers) {
  const Scope scope{recorder, layers.next_instant, "sim.simulator.next_instant"};
  return s.sim->next_instant();
}

sim::RunResult take_result(Session& s, SpanRecorder& recorder, Layers& layers) {
  const Scope scope{recorder, layers.take_result, "sim.simulator.take_result"};
  return s.sim->take_result();
}

/// Drives one session alone to the end, as Simulator::run does.
sim::RunResult drive(Session& s, SpanRecorder& recorder, ReplayTotals& totals) {
  start(s, recorder, totals.layers);
  while (next_instant(s, recorder, totals.layers).has_value()) advance(s, recorder, totals);
  return take_result(s, recorder, totals.layers);
}

/// Σ net time of the top-level layer boundaries: everything a replay times
/// that is not nested inside another timed call.
double explained_ns(const Layers& l, const TimerCost& cost) {
  double sum = 0;
  for (const LayerStat* stat : {&l.setup, &l.start, &l.advance, &l.next_instant, &l.take_result,
                                &l.verify, &l.fold}) {
    sum += stat->net_ns(cost);
  }
  return sum;
}

/// The layer metrics every replay measures the same way.
void report_replay(const ReplayTotals& totals, const TimerCost& cost, MetricMap& m) {
  const Layers& l = totals.layers;
  m["sim.simulator.advance.calls"] = static_cast<double>(l.advance.calls);
  m["sim.simulator.advance.ns_p50"] = l.advance.percentile_ns(50, cost);
  m["sim.simulator.advance.ns_p99"] = l.advance.percentile_ns(99, cost);
  m["sim.simulator.start.ns"] = l.start.net_ns_per_call(cost);
  m["sim.simulator.next_instant.ns"] = l.next_instant.net_ns_per_call(cost);
  m["sim.simulator.take_result.ns"] = l.take_result.net_ns_per_call(cost);
  m["sim.scheduler.next_gap.calls"] = static_cast<double>(l.next_gap.calls);
  m["sim.scheduler.next_gap.ns"] = l.next_gap.net_ns_per_call(cost);
  m["channel.policy_choose.calls"] = static_cast<double>(l.choose.calls);
  m["channel.policy_choose.ns"] = l.choose.net_ns_per_call(cost);
  const double in_flight =
      l.advance.calls == 0 ? 0 : totals.in_flight_sum / static_cast<double>(l.advance.calls);
  m["channel.in_flight_mean"] = in_flight;
  const ChannelCost queue = measure_channel(static_cast<std::size_t>(std::llround(in_flight)));
  m["channel.send.ns"] = queue.send;
  m["channel.collect_due.ns"] = queue.collect_due;
  m["protocols.make_protocol.ns_p50"] = l.make_protocol.percentile_ns(50, cost);
  m["protocols.enabled_local.calls"] = static_cast<double>(l.enabled_local.calls);
  m["protocols.enabled_local.ns"] = l.enabled_local.net_ns_per_call(cost);
  m["protocols.apply.calls"] = static_cast<double>(l.apply.calls);
  m["protocols.apply.ns"] = l.apply.net_ns_per_call(cost);
}

/// Codec metrics for `units` sessions using `points`, which encode
/// `encode_calls` blocks and decode `decode_calls`. Each unit builds two
/// coders: the first cold, since the tables died with the previous unit's
/// coders, the second warm.
void report_codec(const std::vector<CodecPoint>& points, std::uint64_t encode_calls,
                  std::uint64_t decode_calls, std::uint64_t units, double wall_s, MetricMap& m) {
  if (points.empty()) return;
  const CodecCost cost = measure_codec(points);
  m["combinatorics.codec_ctor.cold_ns"] = cost.ctor_cold;
  m["combinatorics.codec_ctor.warm_ns"] = cost.ctor_warm;
  m["combinatorics.encode.calls"] = static_cast<double>(encode_calls);
  m["combinatorics.encode.ns"] = cost.encode;
  m["combinatorics.decode.calls"] = static_cast<double>(decode_calls);
  m["combinatorics.decode.ns"] = cost.decode;
  m["combinatorics.bits_to_biguint_ns"] = cost.bits_to_biguint;
  m["combinatorics.biguint_to_bits_ns"] = cost.biguint_to_bits;
  const double codec_ns = static_cast<double>(encode_calls) * cost.encode +
                          static_cast<double>(decode_calls) * cost.decode +
                          static_cast<double>(units) * (cost.ctor_cold + cost.ctor_warm);
  m["combinatorics.share"] = wall_s > 0 ? codec_ns / (wall_s * 1e9) : 0;
}

// --- mega_narrow / mega_wide ------------------------------------------------------

class MegaWorkload final : public Workload {
 public:
  MegaWorkload(std::uint64_t seed, std::uint64_t sessions, std::uint32_t shards) {
    spec_ = sim::golden_megasession_spec();  // alpha, (1,2,4), k=2, worst case
    spec_.input_bits = 32;
    spec_.sessions = sessions;
    spec_.shards = shards;
    spec_.base_seed = derive_seed(seed, 1);
  }

  Rep run(unsigned threads) override {
    const sim::MultiSession mega{spec_};
    const auto start = Clock::now();
    last_ = mega.run(threads);
    Rep rep;
    rep.wall_s = seconds_since(start);
    rep.events = last_.total_events;
    rep.attempted = last_.sessions;
    // The result counts incorrect and non-quiescent sessions apart, so a
    // session that fails both ways counts twice: `failed` is an upper bound,
    // and no bit of a failed session is credited.
    rep.failed = std::min(last_.sessions, (last_.sessions - last_.correct_sessions) +
                                              (last_.sessions - last_.quiescent_sessions));
    rep.bits_ok = (last_.sessions - rep.failed) * spec_.input_bits;
    rep.effort = last_.effort.mean;
    return rep;
  }

  double setup_probe() override {
    sim::MultiSessionSpec probe = spec_;
    probe.max_events_per_session = 1;
    const sim::MultiSession mega{probe};
    const auto start = Clock::now();
    (void)mega.run(1);
    return seconds_since(start);
  }

  bool deterministic() override {
    (void)run(1);
    const sim::MultiSessionResult serial = last_;
    (void)run(2);
    return serial.same_simulation(last_);
  }

  TracedResult traced(SpanRecorder& recorder, const Rep& untraced, double setup_s,
                      MetricMap& m) override {
    ReplayTotals totals;
    Layers& layers = totals.layers;
    const Timing timing{recorder, layers};
    // The session-order fold MultiSession computes (integer effort ticks,
    // histogram merges), over the replayed sessions.
    sim::MultiSessionResult replay;
    std::uint64_t effort_sessions = 0;
    std::uint64_t effort_ticks = 0;
    std::int64_t ticks_min = 0;
    std::int64_t ticks_max = 0;
    bool metrics_valid = false;

    const auto begin = Clock::now();
    const std::uint64_t n = spec_.sessions;
    const std::uint64_t base = n / spec_.shards;
    const std::uint64_t extra = n % spec_.shards;
    const auto shard_lo = [&](std::uint64_t s) { return s * base + std::min(s, extra); };
    for (std::uint64_t shard = 0; shard < spec_.shards; ++shard) {
      const std::uint64_t lo = shard_lo(shard);
      const auto count = static_cast<std::size_t>(shard_lo(shard + 1) - lo);
      std::vector<Session> slots;
      std::vector<std::vector<ioa::Bit>> inputs;
      build_shard(lo, count, &timing, slots, inputs);

      // The cross-session heap, keyed (next instant, session index) as in
      // MultiSession's shard loop.
      struct Entry {
        Time at{};
        std::uint32_t idx = 0;
      };
      const auto later = [](const Entry& a, const Entry& b) {
        if (b.at < a.at) return true;
        if (a.at < b.at) return false;
        return b.idx < a.idx;
      };
      std::vector<sim::RunResult> results(count);
      std::vector<Entry> heap;
      heap.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        start(slots[i], recorder, layers);
        if (const std::optional<Time> at = next_instant(slots[i], recorder, layers)) {
          heap.push_back(Entry{*at, i});
        } else {
          results[i] = take_result(slots[i], recorder, layers);
        }
      }
      std::make_heap(heap.begin(), heap.end(), later);
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        Entry entry = heap.back();
        heap.pop_back();
        Session& s = slots[entry.idx];
        advance(s, recorder, totals);
        if (const std::optional<Time> at = next_instant(s, recorder, layers)) {
          entry.at = *at;
          heap.push_back(entry);
          std::push_heap(heap.begin(), heap.end(), later);
        } else {
          results[entry.idx] = take_result(s, recorder, layers);
        }
      }

      for (std::size_t i = 0; i < count; ++i) {
        const Scope scope{recorder, layers.fold, "sim.multi_session.fold"};
        const sim::RunResult& r = results[i];
        ++replay.sessions;
        if (r.output == inputs[i]) ++replay.correct_sessions;
        if (r.quiescent) ++replay.quiescent_sessions;
        replay.total_events += r.event_count;
        if (r.last_transmitter_send.has_value()) {
          const std::int64_t ticks = (*r.last_transmitter_send - Time::zero()).ticks();
          if (ticks > 0) {
            ticks_min = effort_sessions == 0 ? ticks : std::min(ticks_min, ticks);
            ticks_max = effort_sessions == 0 ? ticks : std::max(ticks_max, ticks);
            effort_ticks += static_cast<std::uint64_t>(ticks);
            ++effort_sessions;
          }
        }
        if (!metrics_valid) {
          replay.metrics = r.metrics;
          metrics_valid = true;
        } else {
          replay.metrics.counters += r.metrics.counters;
          replay.metrics.data_delay.merge(r.metrics.data_delay);
          replay.metrics.ack_delay.merge(r.metrics.ack_delay);
          replay.metrics.transmitter_gap.merge(r.metrics.transmitter_gap);
          replay.metrics.receiver_gap.merge(r.metrics.receiver_gap);
        }
      }
    }
    if (effort_sessions > 0) {
      const auto bits = static_cast<double>(spec_.input_bits);
      replay.effort.min = static_cast<double>(ticks_min) / bits;
      replay.effort.max = static_cast<double>(ticks_max) / bits;
      replay.effort.mean =
          static_cast<double>(effort_ticks) / (bits * static_cast<double>(effort_sessions));
    }

    TracedResult out;
    out.wall_s = seconds_since(begin);
    out.replay_equal = replay.same_simulation(last_);
    const TimerCost& cost = recorder.cost();
    out.explained_ns = explained_ns(layers, cost);
    report_replay(totals, cost, m);

    const auto sessions = static_cast<double>(spec_.sessions);
    m["sim.multi_session.setup_ns_per_session"] = setup_s * 1e9 / sessions;
    // What the shard loop spends around the sessions' own calls: the heap.
    const double session_ns = layers.start.net_ns(cost) + layers.advance.net_ns(cost) +
                              layers.next_instant.net_ns(cost) + layers.take_result.net_ns(cost);
    m["sim.multi_session.residual_ns_per_event"] =
        ((untraced.wall_s - setup_s) * 1e9 - session_ns) /
        static_cast<double>(std::max<std::uint64_t>(1, untraced.events));
    m["sim.multi_session.bytes_per_session"] =
        arena_bytes_per_session(static_cast<std::size_t>(
            std::min<std::uint64_t>(spec_.sessions / spec_.shards + 1, 10'000)));
    m["core.effort.ticks_per_bit"] = last_.effort.mean;
    return out;
  }

 private:
  /// Builds sessions lo..lo+count-1 of the spec, seeded and wired as
  /// MultiSession's shard arena wires them; timed when `timing` is given.
  void build_shard(std::uint64_t lo, std::size_t count, const Timing* timing,
                   std::vector<Session>& slots, std::vector<std::vector<ioa::Bit>>& inputs) const {
    slots.resize(count);
    inputs.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const sim::DerivedSeeds seeds = sim::derive_unit_seeds(spec_.base_seed, lo + i);
      protocols::ProtocolConfig config;
      config.params = spec_.params;
      config.k = spec_.k;
      config.input = core::make_random_input(spec_.input_bits, seeds.input);
      core::Environment env = spec_.environment;
      env.seed = seeds.environment;
      sim::SimConfig sim_config;
      sim_config.params = spec_.params;
      sim_config.record_trace = false;
      sim_config.max_events = spec_.max_events_per_session;
      build_session(slots[i], spec_.protocol, config, env, std::move(sim_config), timing);
      inputs[i] = std::move(config.input);
    }
  }

  /// Heap bytes per session of the first `count` sessions built bare, as
  /// MultiSession's arena holds them.
  double arena_bytes_per_session(std::size_t count) const {
    const std::size_t before = heap_bytes_in_use();
    std::vector<Session> slots;
    std::vector<std::vector<ioa::Bit>> inputs;
    build_shard(0, count, nullptr, slots, inputs);
    const std::size_t after = heap_bytes_in_use();
    return static_cast<double>(after - std::min(before, after)) / static_cast<double>(count);
  }

  sim::MultiSessionSpec spec_;
  sim::MultiSessionResult last_;
};

// --- campaign_short / campaign_long -------------------------------------------------

class CampaignWorkload final : public Workload {
 public:
  /// {β,γ} × `timings` × `alphabets` × {worst_case, randomized} ×
  /// `seeds_per_cell` jobs of `input_bits` bits each.
  CampaignWorkload(std::uint64_t seed, std::vector<core::TimingParams> timings,
                   std::vector<std::uint32_t> alphabets, std::uint32_t seeds_per_cell,
                   std::size_t input_bits) {
    spec_.protocols = {ProtocolKind::Beta, ProtocolKind::Gamma};
    spec_.timings = std::move(timings);
    spec_.alphabets = std::move(alphabets);
    spec_.environments = {core::Environment::worst_case(), core::Environment::randomized(0)};
    spec_.seeds_per_cell = seeds_per_cell;
    spec_.input_bits = input_bits;
    spec_.campaign_seed = derive_seed(seed, 2);
  }

  Rep run(unsigned threads) override {
    const sim::Campaign campaign{spec_};
    const auto start = Clock::now();
    last_ = campaign.run(threads);
    Rep rep;
    rep.wall_s = seconds_since(start);
    rep.events = last_.total_events;
    rep.attempted = last_.jobs.size();
    rep.failed = last_.incorrect;
    rep.bits_ok = (rep.attempted - rep.failed) * spec_.input_bits;
    rep.effort = last_.effort.mean;
    return rep;
  }

  double setup_probe() override {
    sim::CampaignSpec probe = spec_;
    probe.max_events = 1;
    const sim::Campaign campaign{probe};
    const auto start = Clock::now();
    (void)campaign.run(1);
    return seconds_since(start);
  }

  bool deterministic() override {
    (void)run(1);
    const sim::CampaignResult serial = last_;
    (void)run(2);
    return serial == last_;
  }

  TracedResult traced(SpanRecorder& recorder, const Rep& untraced, double /*setup_s*/,
                      MetricMap& m) override {
    const sim::Campaign campaign{spec_};
    const std::size_t jobs = campaign.job_count();
    ReplayTotals totals;
    Layers& layers = totals.layers;
    const Timing timing{recorder, layers};
    bool equal = last_.jobs.size() == jobs;

    const auto begin = Clock::now();
    for (std::size_t i = 0; i < jobs && equal; ++i) {
      const sim::CampaignJob job = campaign.job(i);
      protocols::ProtocolConfig config;
      config.params = job.params;
      config.k = job.k;
      config.input = core::make_random_input(spec_.input_bits, job.input_seed);
      sim::SimConfig sim_config;
      sim_config.params = job.params;
      sim_config.record_trace = false;
      sim_config.max_events = spec_.max_events;
      Session s;
      build_session(s, job.protocol, config, job.environment, std::move(sim_config), &timing);
      const sim::RunResult r = drive(s, recorder, totals);

      const Scope scope{recorder, layers.fold, "sim.campaign.fold"};
      sim::CampaignJobResult row;
      row.index = job.index;
      row.protocol = job.protocol;
      row.params = job.params;
      row.k = job.k;
      row.env_seed = job.environment.seed;
      row.event_count = r.event_count;
      row.transmitter_steps = r.transmitter_steps;
      row.receiver_steps = r.receiver_steps;
      row.transmitter_sends = r.transmitter_sends;
      row.receiver_sends = r.receiver_sends;
      row.output_correct = r.output == config.input;
      row.quiescent = r.quiescent;
      row.metrics = r.metrics;
      if (spec_.input_bits > 0 && r.last_transmitter_send.has_value()) {
        row.effort = static_cast<double>((*r.last_transmitter_send - Time::zero()).ticks()) /
                     static_cast<double>(spec_.input_bits);
      }
      equal = row == last_.jobs[i];
    }
    TracedResult out;
    out.wall_s = seconds_since(begin);
    const TimerCost& cost = recorder.cost();
    out.explained_ns = explained_ns(layers, cost);
    report_replay(totals, cost, m);

    // Each job alone through the campaign worker's body, untraced: the
    // campaign's own cost per job is its wall time minus the jobs' sum, with
    // both measured back to back, kCostPasses times.
    const auto time_jobs = [&](std::uint64_t max_events, std::vector<double>& ns) {
      double sum = 0;
      for (std::size_t i = 0; i < jobs; ++i) {
        const sim::CampaignJob job = campaign.job(i);
        const auto start = Clock::now();
        const sim::CampaignJobResult row = sim::run_campaign_job(job, spec_.input_bits, max_events);
        const double job_ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
        ns.push_back(job_ns);
        sum += job_ns;
        equal = equal && (max_events == 1 || row == last_.jobs[i]);
      }
      return sum;
    };
    std::vector<double> job_ns;
    std::vector<double> overhead_ns;
    for (int pass = 0; pass < kCostPasses; ++pass) {
      const auto start = Clock::now();
      equal = equal && campaign.run(1) == last_;
      const double wall_ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
      overhead_ns.push_back((wall_ns - time_jobs(spec_.max_events, job_ns)) /
                            static_cast<double>(jobs));
    }
    std::vector<double> setup_ns;
    (void)time_jobs(1, setup_ns);
    m["core.effort.run_protocol.ns_p50"] = percentile(job_ns, 50);
    m["core.effort.run_protocol.ns_p99"] = percentile(job_ns, 99);
    m["core.effort.run_protocol.setup_ns_p50"] = percentile(setup_ns, 50);
    m["core.effort.ticks_per_bit"] = last_.effort.mean;
    m["sim.campaign.overhead_ns_per_job"] = median(overhead_ns);
    const auto start2 = Clock::now();
    equal = equal && campaign.run(2) == last_;
    m["sim.campaign.jobs_per_s.t2"] = static_cast<double>(jobs) / seconds_since(start2);
    out.replay_equal = equal;

    // Codec: every (protocol, timing, k) cell has the same number of jobs.
    std::vector<CodecPoint> points;
    std::uint64_t encode_calls = 0;
    const std::uint64_t jobs_per_cell =
        jobs / (spec_.protocols.size() * spec_.timings.size() * spec_.alphabets.size());
    for (const ProtocolKind kind : spec_.protocols) {
      for (const core::TimingParams& params : spec_.timings) {
        for (const std::uint32_t k : spec_.alphabets) {
          const std::uint32_t delta = codec_delta(kind, params);
          points.push_back(CodecPoint{k, delta, 1});
          encode_calls +=
              jobs_per_cell * combinatorics::BlockCoder{k, delta}.blocks_for(spec_.input_bits);
        }
      }
    }
    report_codec(points, encode_calls, last_.total_counters.protocol.blocks_decoded, jobs,
                 untraced.wall_s, m);
    return out;
  }

 private:
  sim::CampaignSpec spec_;
  sim::CampaignResult last_;
};

// --- link_verify ------------------------------------------------------------------

bool same_transfer(const api::TransferResult& a, const api::TransferResult& b) {
  return a.ok == b.ok && a.received == b.received &&
         a.stats.protocol_used == b.stats.protocol_used &&
         a.stats.payload_bytes == b.stats.payload_bytes &&
         a.stats.payload_bits == b.stats.payload_bits && a.stats.last_send == b.stats.last_send &&
         a.stats.completion == b.stats.completion &&
         a.stats.ticks_per_bit == b.stats.ticks_per_bit &&
         a.stats.data_packets == b.stats.data_packets &&
         a.stats.ack_packets == b.stats.ack_packets && a.stats.events == b.stats.events &&
         a.stats.verified == b.stats.verified;
}

class LinkWorkload final : public Workload {
 public:
  /// `payloads` transfers of `bytes` seeded bytes each; at least two, so the
  /// 2-thread determinism run transfers on both workers.
  LinkWorkload(std::uint64_t seed, std::size_t payloads, std::size_t bytes) {
    options_.params = core::TimingParams::make(1, 2, 16);
    options_.k = 16;
    options_.protocol = api::LinkProtocol::Auto;
    options_.verify = true;
    Rng rng{derive_seed(seed, 3)};
    payloads_.resize(payloads);
    for (auto& payload : payloads_) {
      payload.resize(bytes);
      for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next_u64());
    }
  }

  Rep run(unsigned threads) override { return run_with(options_, threads, last_); }

  double setup_probe() override {
    api::LinkOptions probe = options_;
    probe.max_events = 1;
    std::vector<api::TransferResult> results;
    return run_with(probe, 1, results).wall_s;
  }

  bool deterministic() override {
    (void)run(1);
    const std::vector<api::TransferResult> serial = last_;
    (void)run(2);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (!same_transfer(serial[i], last_[i])) return false;
    }
    return true;
  }

  TracedResult traced(SpanRecorder& recorder, const Rep& untraced, double /*setup_s*/,
                      MetricMap& m) override {
    const api::Link link{options_};
    const ProtocolKind kind = link.resolved_protocol();
    ReplayTotals totals;
    Layers& layers = totals.layers;
    const Timing timing{recorder, layers};
    bool equal = last_.size() == payloads_.size();
    double trace_bytes = 0;
    double trace_events = 0;
    std::uint64_t decode_calls = 0;

    const auto begin = Clock::now();
    for (std::size_t i = 0; i < payloads_.size() && equal; ++i) {
      // Link::transfer's body, layer by layer.
      protocols::ProtocolConfig config;
      config.params = options_.params;
      config.k = options_.k;
      config.input = api::bytes_to_bits(payloads_[i]);
      sim::SimConfig sim_config;
      sim_config.params = options_.params;
      sim_config.record_trace = options_.verify;
      sim_config.max_events = options_.max_events;
      Session s;
      build_session(s, kind, config, options_.environment, std::move(sim_config), &timing);
      const sim::RunResult r = drive(s, recorder, totals);
      trace_bytes += static_cast<double>(r.trace.events().capacity() * sizeof(ioa::TimedEvent));
      trace_events += static_cast<double>(r.trace.size());
      decode_calls += r.metrics.counters.protocol.blocks_decoded;
      bool verified = false;
      {
        const Scope scope{recorder, layers.verify, "core.verify.verify_trace"};
        verified = core::verify_trace(r.trace, options_.params, config.input).ok();
      }
      const Scope scope{recorder, layers.fold, "api.link.result"};
      api::TransferResult t;
      t.stats.protocol_used = kind;
      t.stats.payload_bytes = payloads_[i].size();
      t.stats.payload_bits = config.input.size();
      t.stats.last_send = r.last_transmitter_send;
      t.stats.completion = r.end_time;
      t.stats.data_packets = r.transmitter_sends;
      t.stats.ack_packets = r.receiver_sends;
      t.stats.events = r.event_count;
      if (!config.input.empty() && r.last_transmitter_send.has_value()) {
        t.stats.ticks_per_bit =
            static_cast<double>((*r.last_transmitter_send - Time::zero()).ticks()) /
            static_cast<double>(config.input.size());
      }
      t.stats.verified = verified;
      const bool correct = r.output == config.input;
      if (correct && r.quiescent) t.received = api::bits_to_bytes(r.output);
      t.ok = correct && r.quiescent && verified;
      equal = same_transfer(t, last_[i]);
    }
    TracedResult out;
    out.wall_s = seconds_since(begin);
    const TimerCost& cost = recorder.cost();
    out.explained_ns = explained_ns(layers, cost);
    report_replay(totals, cost, m);

    // Untraced, back to back per payload, kCostPasses times: the whole
    // transfer, the run it wraps with the trace on and off, and the verifier
    // on that trace.
    std::vector<double> transfer_ns;
    std::vector<double> record_ns_per_event;
    std::vector<double> verify_ns_per_event;
    std::vector<double> overhead_ns;
    const auto since = [](Clock::time_point start) {
      return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    };
    for (std::size_t pass = 0; pass < kCostPasses * payloads_.size(); ++pass) {
      const std::size_t i = pass % payloads_.size();
      auto start = Clock::now();
      const api::TransferResult transfer = link.transfer(payloads_[i]);
      transfer_ns.push_back(since(start));
      equal = equal && same_transfer(transfer, last_[i]);

      protocols::ProtocolConfig config;
      config.params = options_.params;
      config.k = options_.k;
      config.input = api::bytes_to_bits(payloads_[i]);
      start = Clock::now();
      const core::ProtocolRun traced_run =
          core::run_protocol(kind, config, options_.environment, true, options_.max_events);
      const double on_ns = since(start);
      start = Clock::now();
      const bool verified = core::verify_trace(traced_run.result.trace, options_.params, config.input).ok();
      const double verify_ns = since(start);
      equal = equal && verified;
      start = Clock::now();
      const core::ProtocolRun plain_run =
          core::run_protocol(kind, config, options_.environment, false, options_.max_events);
      const double off_ns = since(start);
      const auto events = static_cast<double>(std::max<std::uint64_t>(1, plain_run.result.event_count));
      record_ns_per_event.push_back((on_ns - off_ns) / events);
      verify_ns_per_event.push_back(verify_ns / events);
      overhead_ns.push_back(transfer_ns.back() - on_ns - verify_ns);
    }
    out.replay_equal = equal;
    m["core.verify.record_trace.ns_per_event"] = median(record_ns_per_event);
    m["core.verify.trace.bytes_per_event"] = trace_bytes / std::max(1.0, trace_events);
    m["core.verify.verify_trace.ns_per_event"] = median(verify_ns_per_event);
    m["api.link.transfer.ns_p50"] = median(transfer_ns);
    m["api.link.overhead_ns"] = median(overhead_ns);
    m["core.effort.ticks_per_bit"] = last_.empty() ? 0 : last_.front().stats.ticks_per_bit;

    const std::uint32_t delta = codec_delta(kind, options_.params);
    if (delta > 0) {
      std::uint64_t encode_calls = 0;
      {
        const combinatorics::BlockCoder coder{options_.k, delta};
        for (const auto& payload : payloads_) encode_calls += coder.blocks_for(payload.size() * 8);
      }  // no coder may outlive this block, or the cold construction below is warm
      report_codec({CodecPoint{options_.k, delta, 1}}, encode_calls, decode_calls,
                   payloads_.size(), untraced.wall_s, m);
    }
    return out;
  }

 private:
  Rep run_with(const api::LinkOptions& options, unsigned threads,
               std::vector<api::TransferResult>& results) {
    const api::Link link{options};
    const std::size_t n = payloads_.size();
    results.assign(n, api::TransferResult{});
    const auto transfer_range = [&](std::size_t first, std::size_t stride) {
      for (std::size_t i = first; i < n; i += stride) results[i] = link.transfer(payloads_[i]);
    };
    const auto start = Clock::now();
    if (threads <= 1) {
      transfer_range(0, 1);
    } else {
      std::vector<std::jthread> pool;
      for (unsigned w = 0; w < threads; ++w) pool.emplace_back(transfer_range, w, threads);
    }
    Rep rep;
    rep.wall_s = seconds_since(start);
    rep.attempted = n;
    double effort_sum = 0;
    for (const api::TransferResult& t : results) {
      rep.events += t.stats.events;
      effort_sum += t.stats.ticks_per_bit;
      if (t.ok) {
        rep.bits_ok += t.stats.payload_bits;
      } else {
        ++rep.failed;
      }
    }
    rep.effort = effort_sum / static_cast<double>(n);
    return rep;
  }

  api::LinkOptions options_;
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<api::TransferResult> last_;
};

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> kNames = {"mega_narrow", "campaign_short",
                                                       "campaign_long", "link_verify"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  using core::TimingParams;
  if (name == "mega_narrow") return std::make_unique<MegaWorkload>(seed, 128, 2);
  if (name == "campaign_short") {
    return std::make_unique<CampaignWorkload>(
        seed, std::vector{TimingParams::make(1, 1, 8), TimingParams::make(1, 2, 32)},
        std::vector<std::uint32_t>{16, 64}, 2, 8);
  }
  if (name == "campaign_long") {
    return std::make_unique<CampaignWorkload>(seed, std::vector{TimingParams::make(1, 2, 32)},
                                              std::vector<std::uint32_t>{64}, 1, 4096);
  }
  if (name == "link_verify") return std::make_unique<LinkWorkload>(seed, 2, 1024);
  return nullptr;
}

}  // namespace rstp::bench
