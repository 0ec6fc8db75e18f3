// Shared machinery for the repo's generational search engines — the
// coverage-guided fuzzer (sim/fuzz.h) and the adversary synthesizer
// (sim/adversary.h). They differ in genome, scoring and breeding; everything
// else lives here, once:
//
//   * FNV-1a mixing and the event fingerprint: a 64-bit digest of "where the
//     protocol is" after one applied event. It deliberately excludes raw
//     times and sequence numbers (every case would be all-new coverage) and
//     includes the action shape, the protocol automata's own counters, and
//     the output length — state the paper's proofs quantify over.
//   * CoverageObserver: the SimObserver that collects one run's distinct
//     event fingerprints.
//   * parallel_for_slots: the repo's one worker pool, shared by the campaign
//     engine, the multiplexed sessions and both search engines. Workers
//     claim indices from an atomic cursor and write disjoint slots; the
//     caller folds serially afterwards, so results are independent of the
//     worker count. The first worker exception is rethrown on the caller's
//     thread.
//   * run_generations: the one search loop. Each generation is fully planned
//     before any parallel work (slot b after `planned` evaluations breeds
//     from Rng{splitmix64(seed ^ 0x9E3779B97F4A7C15·(planned+b+1))}),
//     evaluated on parallel_for_slots and folded serially in slot order, so
//     the result is bitwise identical for any `jobs`.
//   * The one reader and writer of the rstp-fuzz-case-v1, rstp-fuzz-repro-v1
//     and rstp-adversary-v1 artifact grammar (docs/TESTING.md), including
//     the cell keys both kinds carry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "rstp/common/parse.h"
#include "rstp/common/rng.h"
#include "rstp/core/params.h"
#include "rstp/ioa/trace.h"
#include "rstp/protocols/base.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/observer.h"

namespace rstp::sim {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Coverage fingerprint of one applied event given the two protocol
/// automata's current counter state (see the header comment).
[[nodiscard]] std::uint64_t event_fingerprint(const ioa::TimedEvent& e,
                                              const protocols::TransmitterBase& t,
                                              const protocols::ReceiverBase& r);

/// Collects the distinct event fingerprints of one run of the pair (t, r).
class CoverageObserver final : public SimObserver {
 public:
  CoverageObserver(const protocols::TransmitterBase& t, const protocols::ReceiverBase& r)
      : t_(t), r_(r) {}

  void on_event(const ioa::TimedEvent& event, const EventContext&) override {
    seen_.insert(event_fingerprint(event, t_, r_));
  }

  /// The distinct fingerprints seen so far, ascending.
  [[nodiscard]] std::vector<std::uint64_t> sorted_fingerprints() const;

 private:
  const protocols::TransmitterBase& t_;
  const protocols::ReceiverBase& r_;
  std::unordered_set<std::uint64_t> seen_;
};

/// FNV-1a over a bit sequence (output hashing).
[[nodiscard]] std::uint64_t hash_bits(const std::vector<ioa::Bit>& bits);

/// FNV-1a fold of an already-sorted value sequence (order-independent
/// coverage hashing: sort first, then fold).
[[nodiscard]] std::uint64_t hash_sorted(const std::vector<std::uint64_t>& values);

/// Runs fn(0..n-1) across up to `jobs` worker threads (0 = hardware
/// concurrency). fn must write only to its own slot `i`.
void parallel_for_slots(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& fn);

// ---------------------------------------------------------------------------
// The generational search loop.

/// Mutation-count draw width (1 + next_below(rate)) while coverage grows; each
/// zero-gain generation adds one, up to kMaxMutationBoost.
inline constexpr std::uint64_t kBaseMutationRate = 3;
inline constexpr std::uint64_t kMaxMutationBoost = 5;

struct GenerationPlan {
  std::uint64_t seed = 0;
  std::uint64_t budget = 1;  ///< total evaluations, generation 0 included
  /// Slots per bred generation; never a function of `jobs`, or the corpus
  /// would evolve on a different schedule at different thread counts.
  std::uint64_t generation_size = 1;
  unsigned jobs = 1;  ///< 0 = hardware concurrency
};

/// The serial fold's state after one generation.
struct GenerationTally {
  std::size_t coverage = 0;       ///< distinct fingerprints so far
  std::size_t coverage_gain = 0;  ///< fingerprints first reached this generation
  std::uint64_t mutation_rate = kBaseMutationRate;  ///< next generation's draw width
};

/// The one search loop (see the header comment); returns every distinct
/// fingerprint reached, ascending. evaluate(genome) runs on the worker pool;
/// fold(genome, result, fresh) runs serially in slot order, fresh meaning the
/// result reached some fingerprint first; stop(tally) == true ends the search
/// before the budget does; breed(rng, slot, rate) makes one new genome.
template <typename Genome, typename Evaluate, typename Fold, typename Stop, typename Breed>
std::vector<std::uint64_t> run_generations(const GenerationPlan& plan, std::vector<Genome> round,
                                           Evaluate evaluate, Fold fold, Stop stop,
                                           Breed breed) {
  using Result = std::invoke_result_t<Evaluate&, const Genome&>;
  if (round.size() > plan.budget) round.resize(static_cast<std::size_t>(plan.budget));
  std::uint64_t planned = round.size();
  std::unordered_set<std::uint64_t> seen;
  GenerationTally tally;
  std::uint64_t stall = 0;
  while (!round.empty()) {
    std::vector<Result> results(round.size());
    parallel_for_slots(round.size(), plan.jobs,
                       [&](std::size_t i) { results[i] = evaluate(round[i]); });
    for (std::size_t i = 0; i < round.size(); ++i) {
      bool fresh = false;
      for (const std::uint64_t fp : results[i].fingerprints) {
        if (seen.insert(fp).second) fresh = true;
      }
      fold(round[i], results[i], fresh);
    }
    tally.coverage_gain = seen.size() - tally.coverage;
    tally.coverage = seen.size();
    stall = tally.coverage_gain == 0 ? stall + 1 : 0;
    tally.mutation_rate = kBaseMutationRate + std::min(stall, kMaxMutationBoost);
    if (stop(tally) || planned >= plan.budget) break;

    const auto batch = static_cast<std::size_t>(
        std::min<std::uint64_t>(plan.budget - planned, plan.generation_size));
    round.clear();
    for (std::size_t b = 0; b < batch; ++b) {
      std::uint64_t state = plan.seed ^ (0x9E3779B97F4A7C15ULL * (planned + b + 1));
      Rng rng{splitmix64(state)};
      round.push_back(breed(rng, b, tally.mutation_rate));
    }
    planned += batch;
  }
  std::vector<std::uint64_t> all(seen.begin(), seen.end());
  std::sort(all.begin(), all.end());
  return all;
}

// ---------------------------------------------------------------------------
// The artifact grammar.

/// One artifact line without its comment: a key, then value tokens read in
/// order. Every read failure throws ModelError naming the line.
class ArtifactLine {
 public:
  ArtifactLine(std::size_t number, const std::string& raw);
  /// The tokens joined by single spaces; empty for a blank line.
  [[nodiscard]] const std::string& text() const { return text_; }
  [[nodiscard]] const std::string& key() const { return tokens_.front(); }
  [[nodiscard]] const std::string& read_word();
  /// The next value token as one whole number of type T.
  template <typename T>
  [[nodiscard]] T read_value() {
    const std::string& token = read_word();
    const auto value = parse_number<T>(token);
    if (!value.has_value()) reject("bad number '" + token + "'");
    return *value;
  }
  [[noreturn]] void reject(std::string_view what) const;
  void expect_consumed() const;  ///< rejects a value token left unread

 private:
  std::size_t number_;
  std::string text_;
  std::vector<std::string> tokens_;
  std::size_t next_ = 1;
};

/// A header line, then every line before `end`.
struct ArtifactDocument {
  ArtifactLine header;
  std::vector<ArtifactLine> lines;
};

/// Throws ModelError on an empty document or a missing `end`.
[[nodiscard]] ArtifactDocument read_artifact(std::istream& is);

/// The cell keys both artifact kinds carry, bound to the caller's fields.
struct ArtifactCell {
  protocols::ProtocolKind& protocol;
  core::TimingParams& params;
  std::uint32_t& k;
  std::uint32_t& input_bits;
  std::uint64_t& input_seed;
  std::uint64_t& max_events;
};

/// Checks the header, then applies each line: a cell key to `cell` (with
/// 0 < c1 <= c2 <= d, ceil(d/c1) <= 2^32 - 1, k >= 2, input_bits >= 1,
/// max_events >= 1), any other key to `apply`, which returns false for a key
/// it does not know.
void read_artifact_fields(ArtifactDocument& doc, std::string_view header,
                          const ArtifactCell& cell,
                          const std::function<bool(ArtifactLine&)>& apply);

class ArtifactWriter {
 public:
  ArtifactWriter(std::ostream& os, std::string_view header) : os_(os) { os_ << header << '\n'; }
  template <typename... Values>
  void field(std::string_view key, const Values&... values) {
    os_ << key;
    ((os_ << ' ' << values), ...);
    os_ << '\n';
  }
  /// `key count v…`, each entry written as project(v).
  template <typename T, typename Project = std::identity>
  void table(std::string_view key, const std::vector<T>& values, Project project = {}) {
    os_ << key << ' ' << values.size();
    for (const T& v : values) os_ << ' ' << project(v);
    os_ << '\n';
  }
  void end() { os_ << "end\n"; }

 private:
  std::ostream& os_;
};

/// protocol, params, k, input_bits, input_seed. max_events sits elsewhere in
/// each kind's key order, so each writer places it.
void write_cell_keys(ArtifactWriter& w, protocols::ProtocolKind protocol,
                     const core::TimingParams& params, std::uint32_t k, std::uint32_t input_bits,
                     std::uint64_t input_seed);

/// Writes the first recorded field a replay failed to reproduce, in check
/// order, to `mismatch` as "field: got G, recorded R".
class ReplayCheck {
 public:
  explicit ReplayCheck(std::string& mismatch) : mismatch_(mismatch) {}
  template <typename G, typename R>
  void expect(std::string_view field, bool same, const G& got, const R& recorded) {
    if (same || !mismatch_.empty()) return;
    std::ostringstream os;
    os << field << ": got " << got << ", recorded " << recorded;
    mismatch_ = os.str();
  }
  template <typename T>
  void expect_equal(std::string_view field, const T& got, const T& recorded) {
    expect(field, got == recorded, got, recorded);
  }

 private:
  std::string& mismatch_;
};

}  // namespace rstp::sim
