#pragma once
// The unified serving API: one Workload = one compiled model + one output
// kind (logits or labels) + one batch width K, yielding ONE plan, ONE
// preprocess entry point, ONE store fingerprint family and ONE run()
// method.  SecureNetwork is compile-and-share only; serving always goes
// through a Workload.
//
// run() executes queries in K-lane chunks inside single contexts
// (ir::execute_batch): all K lanes of a chunk advance each round group in
// lockstep, so comparison rounds are shared batch-wide and a K-query chunk
// costs the rounds of ONE query.  A chunk's lanes are a ChunkLanes built
// from the queries' stream positions (and store bundles), so every lane's
// output is bit-identical to an independent one-lane run of the same
// stream position — batched, worker-sharded, store-backed and
// dealer-backed serving all produce the same bits.

#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "obs/tracer.hpp"
#include "offline/offline_generator.hpp"
#include "offline/preprocessing_plan.hpp"
#include "offline/triple_store.hpp"
#include "proto/secure_network.hpp"

namespace pasnet::proto {

/// What a workload reveals per query.
enum class WorkloadKind {
  logits,    ///< reconstructed logit tensors
  classify,  ///< argmax labels only (label-only serving)
};

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::logits;
  /// Lanes per chunk context (K): run() executes ceil(n/K) chunks, each a
  /// single-context batched execution of up to K queries.  A trailing
  /// partial chunk runs with fewer lanes (heterogeneous K) — per-query
  /// results do not depend on the chunking.
  int batch = 1;
  /// Concurrent chunk workers; chunks are independent (own context, own
  /// per-lane triple streams), so any worker count produces the same bits.
  int worker_pairs = 1;
};

/// Per-query outcomes of one run() call.
struct WorkloadResult {
  std::vector<nn::Tensor> logits;        ///< one per query (logits workloads)
  std::vector<std::vector<int>> labels;  ///< one per query (classify workloads)
};

/// The lanes of one serving chunk: K queries sharing one context, each with
/// the streams an independent one-lane run of its stream position p draws
/// on its own fresh context seeded SecureNetwork::query_context_seed(p) — a
/// TripleDealer on query_dealer_seed(p), served directly or through the
/// lane's bundle, and that context's share-randomness pair.  Workload::run
/// and net::PartySession::run_batch both build their lanes here, so it is
/// the one place that knows how a lane is seeded.
class ChunkLanes {
 public:
  /// `positions[j]` is lane j's stream position (at least one lane).
  /// `bundles` is empty, and every lane serves its canonical dealer, or
  /// holds one borrowed bundle per lane, served by offline::StoreTripleSource
  /// under `policy` and read only at draw time.  A null bundle is a claim
  /// past the end of a store or dealer: Throw raises TripleStoreExhausted
  /// at the lane's first draw, Refill serves the lane's canonical dealer.
  ChunkLanes(const crypto::RingConfig& rc, const std::vector<std::size_t>& positions,
             const std::vector<offline::QueryBundle*>& bundles, offline::ExhaustionPolicy policy);
  ChunkLanes(const ChunkLanes&) = delete;
  ChunkLanes& operator=(const ChunkLanes&) = delete;

  /// Seed of the chunk's context: lane 0's canonical context seed.
  [[nodiscard]] std::uint64_t context_seed() const noexcept { return context_seed_; }
  /// What ir::BatchExecOptions::lanes takes.
  [[nodiscard]] const std::vector<ir::Lane>& lanes() const noexcept { return lanes_; }
  /// Correlated randomness consumed so far, summed over the lanes.
  [[nodiscard]] crypto::TripleCounters counters() const noexcept;

 private:
  struct Streams {
    Streams(const crypto::RingConfig& rc, std::uint64_t cseed);
    crypto::TripleDealer dealer;
    std::unique_ptr<crypto::TripleSource> source;
    crypto::Prng prng0, prng1;
  };
  std::deque<Streams> streams_;  // a deque keeps lanes_' pointers valid
  std::vector<ir::Lane> lanes_;
  std::uint64_t context_seed_ = 0;
};

/// Per-chunk statistics: communication/round totals are chunk-level (the
/// chunk's lanes share every exchange — that is the point), triple
/// counters are exact sums over the chunk's per-lane sources.
struct ChunkStats {
  std::size_t first_query = 0;  ///< canonical stream position of lane 0
  std::size_t queries = 0;      ///< lanes in this chunk
  InferenceStats totals;
  /// Trace-counter totals of this chunk (all zero unless a tracer was
  /// attached).  Its rounds/bytes/messages are the chunk's channel meter,
  /// added once (crypto::trace_traffic), so they equal `totals` by
  /// construction; the other counters come from the protocol layers.
  obs::CounterSnapshot trace;
};

class Workload {
 public:
  /// Binds a compiled network to an output kind and batch width.  The
  /// classify kind compiles the argmax-terminated program on first use;
  /// the plan is derived here from that program, so logits and classify
  /// workloads of the same model carry distinct fingerprints (they consume
  /// different triple streams).
  explicit Workload(SecureNetwork& net, WorkloadOptions opts = WorkloadOptions{});

  [[nodiscard]] WorkloadKind kind() const noexcept { return opts_.kind; }
  [[nodiscard]] int batch() const noexcept { return opts_.batch; }
  [[nodiscard]] int worker_pairs() const noexcept { return opts_.worker_pairs; }
  [[nodiscard]] SecureNetwork& network() const noexcept { return net_; }

  /// The program this workload executes (argmax-terminated for classify).
  [[nodiscard]] const ir::SecureProgram& program() const noexcept { return *program_; }

  /// The workload's ONE preprocessing plan: what one query consumes, with
  /// the fingerprint its stores must match.
  [[nodiscard]] const offline::PreprocessingPlan& plan() const noexcept { return plan_; }

  /// Pregenerates `queries` queries' worth of correlated randomness on
  /// `threads` workers, canonically seeded so serving from the store is
  /// bit-identical to the dealer path.
  [[nodiscard]] offline::TripleStore preprocess(
      std::size_t queries, int threads = 1,
      offline::GenerationReport* report = nullptr) const;

  /// Serves subsequent run() calls from pregenerated material (non-owning;
  /// the store must outlive serving).  The store fingerprint must match
  /// plan() — there is exactly one fingerprint family per workload.  Pass
  /// nullptr to detach and serve the dealer path again.
  void use_store(offline::TripleStore* store,
                 offline::ExhaustionPolicy policy = offline::ExhaustionPolicy::Throw);
  [[nodiscard]] offline::TripleStore* store() const noexcept { return store_; }

  /// Runs the queries in K-lane batched chunks, sharded across
  /// worker_pairs.  Query stream positions continue across run() calls
  /// (the q-th query ever submitted uses the canonical seeds of position
  /// q), so splitting a query list over several run() calls returns the
  /// same bits as one call.
  [[nodiscard]] WorkloadResult run(const std::vector<nn::Tensor>& inputs);

  /// Merged totals across the last run() call's chunks.
  [[nodiscard]] const InferenceStats& stats() const noexcept { return stats_; }
  /// Per-chunk breakdown of the last run() call.
  [[nodiscard]] const std::vector<ChunkStats>& chunk_stats() const noexcept {
    return chunk_stats_;
  }
  /// Queries submitted so far (the next query's canonical stream position).
  [[nodiscard]] std::size_t queries_served() const noexcept { return next_query_; }

  /// Attaches a tracer (non-owning; nullptr detaches).  Each chunk runs
  /// under its own per-chunk tracer (attached to the chunk context, its
  /// channel and its per-lane triple sources); the chunk's metered traffic
  /// is added to it once, its counter totals land in that chunk's
  /// ChunkStats::trace, and spans, samples and counters are then merged
  /// into the attached tracer, so concurrent chunk workers aggregate into
  /// one timeline.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  SecureNetwork& net_;
  WorkloadOptions opts_;
  const ir::SecureProgram* program_;  // owned by net_
  offline::PreprocessingPlan plan_;
  offline::TripleStore* store_ = nullptr;  // non-owning; see use_store
  offline::ExhaustionPolicy policy_ = offline::ExhaustionPolicy::Throw;
  std::size_t next_query_ = 0;
  InferenceStats stats_;
  std::vector<ChunkStats> chunk_stats_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
};

}  // namespace pasnet::proto
