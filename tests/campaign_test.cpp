// Tests for the parallel simulation-campaign engine (sim/campaign).
#include "rstp/sim/campaign.h"

#include <gtest/gtest.h>

#include <set>

#include "rstp/common/check.h"

namespace rstp::sim {
namespace {

using protocols::ProtocolKind;

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.protocols = {ProtocolKind::Alpha, ProtocolKind::Beta};
  spec.timings = {core::TimingParams::make(1, 1, 4)};
  spec.alphabets = {4};
  spec.environments = {core::Environment::worst_case(), core::Environment::randomized(1)};
  spec.seeds_per_cell = 2;
  spec.input_bits = 16;
  spec.campaign_seed = 42;
  return spec;
}

/// The fixed 64-job reference grid (4 protocols × 2 timings × 2 alphabets ×
/// 2 environments × 2 seeds): large enough that the thread pool has real
/// work to steal, so the cross-thread-count determinism check below means
/// something.
CampaignSpec reference_campaign_spec() {
  CampaignSpec spec;
  spec.protocols = {protocols::ProtocolKind::Alpha, protocols::ProtocolKind::Beta,
                    protocols::ProtocolKind::Gamma, protocols::ProtocolKind::AltBit};
  spec.timings = {core::TimingParams::make(1, 1, 4), core::TimingParams::make(1, 2, 8)};
  spec.alphabets = {4, 16};
  spec.environments = {core::Environment::worst_case(), core::Environment::randomized(1)};
  spec.seeds_per_cell = 2;
  // Heavy enough that each job is hundreds of microseconds of simulation —
  // thread-pool overhead must be amortizable for the speedup stages to mean
  // anything — while keeping the whole bench comfortably under a second.
  spec.input_bits = 256;
  spec.campaign_seed = 0xCA3BA167;
  return spec;
}

TEST(CampaignSpec, JobCountIsTheGridProduct) {
  const CampaignSpec spec = small_spec();
  EXPECT_EQ(spec.job_count(), 2u * 1u * 1u * 2u * 2u);
}

TEST(CampaignSpec, ValidateRejectsEmptyAxes) {
  CampaignSpec spec = small_spec();
  spec.protocols.clear();
  EXPECT_THROW(Campaign{spec}, ContractViolation);
  spec = small_spec();
  spec.alphabets.clear();
  EXPECT_THROW(Campaign{spec}, ContractViolation);
  spec = small_spec();
  spec.seeds_per_cell = 0;
  EXPECT_THROW(Campaign{spec}, ContractViolation);
}

TEST(Campaign, JobEnumerationCoversTheGridWithDistinctSeeds) {
  const Campaign campaign{small_spec()};
  std::set<std::pair<std::uint64_t, std::uint64_t>> seeds;
  std::size_t alpha_jobs = 0;
  for (std::size_t i = 0; i < campaign.job_count(); ++i) {
    const CampaignJob job = campaign.job(i);
    EXPECT_EQ(job.index, i);
    seeds.insert({job.environment.seed, job.input_seed});
    if (job.protocol == ProtocolKind::Alpha) ++alpha_jobs;
  }
  // SplitMix64 derivation: every job gets its own (env, input) seed pair.
  EXPECT_EQ(seeds.size(), campaign.job_count());
  EXPECT_EQ(alpha_jobs, campaign.job_count() / 2);
}

TEST(Campaign, SerialRunIsCorrectAndAggregated) {
  const Campaign campaign{small_spec()};
  const CampaignResult result = campaign.run(1);
  ASSERT_EQ(result.jobs.size(), campaign.job_count());
  EXPECT_TRUE(result.all_correct());
  EXPECT_EQ(result.incorrect, 0u);
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].index, i);
    EXPECT_TRUE(result.jobs[i].output_correct);
    EXPECT_FALSE(result.jobs[i].failed);
    events += result.jobs[i].event_count;
  }
  EXPECT_EQ(result.total_events, events);
  EXPECT_GE(result.effort.max, result.effort.mean);
  EXPECT_GE(result.effort.mean, result.effort.min);
  EXPECT_GT(result.effort.min, 0.0);
}

TEST(Campaign, FourThreadResultIsBitwiseIdenticalToSerial) {
  // The ISSUE's determinism contract, on the reference 64-job grid: the
  // merged result must compare equal field-for-field (defaulted operator==
  // over every job row and aggregate) whatever the thread count.
  const Campaign campaign{reference_campaign_spec()};
  ASSERT_EQ(campaign.job_count(), 64u);
  const CampaignResult serial = campaign.run(1);
  EXPECT_TRUE(serial.all_correct());
  const CampaignResult parallel = campaign.run(4);
  EXPECT_TRUE(serial == parallel);
  const CampaignResult two = campaign.run(2);
  EXPECT_TRUE(serial == two);
}

TEST(Campaign, ThreadCountZeroMeansHardwareConcurrency) {
  const Campaign campaign{small_spec()};
  const CampaignResult serial = campaign.run(1);
  const CampaignResult automatic = campaign.run(0);
  EXPECT_TRUE(serial == automatic);
}

TEST(Campaign, SingleJobRerunMatchesTheCampaignRow) {
  // run_campaign_job is the worker body: rerunning one cell standalone must
  // reproduce the row the full campaign recorded for it.
  const Campaign campaign{small_spec()};
  const CampaignResult result = campaign.run(1);
  const CampaignSpec& spec = campaign.spec();
  for (const std::size_t index : {std::size_t{0}, campaign.job_count() - 1}) {
    const CampaignJobResult rerun =
        run_campaign_job(campaign.job(index), spec.input_bits, spec.max_events);
    EXPECT_TRUE(rerun == result.jobs[index]) << "job " << index;
  }
}

}  // namespace
}  // namespace rstp::sim
