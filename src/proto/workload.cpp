#include "proto/workload.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ir/plan.hpp"

namespace pasnet::proto {

/// Seeded like the fresh context of an independent run, which seeds its
/// dealer with splitmix64(seed) (= SecureNetwork::query_dealer_seed) and
/// prng(p) with splitmix64(seed ^ (p + 1)): that pins the lane's triples,
/// share splits and truncation noise to that run's.
ChunkLanes::Streams::Streams(const crypto::RingConfig& rc, std::uint64_t cseed)
    : dealer(rc, crypto::splitmix64(cseed)),
      prng0(crypto::splitmix64(cseed ^ 1)),
      prng1(crypto::splitmix64(cseed ^ 2)) {}

ChunkLanes::ChunkLanes(const crypto::RingConfig& rc, const std::vector<std::size_t>& positions,
                       const std::vector<offline::QueryBundle*>& bundles,
                       offline::ExhaustionPolicy policy) {
  if (positions.empty()) throw std::invalid_argument("ChunkLanes: a chunk needs a lane");
  if (!bundles.empty() && bundles.size() != positions.size()) {
    throw std::invalid_argument("ChunkLanes: bundles must cover every lane");
  }
  context_seed_ = SecureNetwork::query_context_seed(positions[0]);
  for (std::size_t j = 0; j < positions.size(); ++j) {
    Streams& s = streams_.emplace_back(rc, SecureNetwork::query_context_seed(positions[j]));
    if (bundles.empty()) {
      s.source = std::make_unique<crypto::DealerTripleSource>(s.dealer, rc);
    } else {
      s.source = std::make_unique<offline::StoreTripleSource>(bundles[j], s.dealer, policy);
    }
    lanes_.push_back(ir::Lane{s.source.get(), &s.prng0, &s.prng1});
  }
}

crypto::TripleCounters ChunkLanes::counters() const noexcept {
  crypto::TripleCounters sum;
  for (const ir::Lane& lane : lanes_) {
    const crypto::TripleCounters& c = lane.triples->counters();
    sum.elem_triples += c.elem_triples;
    sum.square_pairs += c.square_pairs;
    sum.matmul_triple_elems += c.matmul_triple_elems;
    sum.bilinear_triple_elems += c.bilinear_triple_elems;
    sum.bit_triples += c.bit_triples;
  }
  return sum;
}

Workload::Workload(SecureNetwork& net, WorkloadOptions opts) : net_(net), opts_(opts) {
  if (opts_.batch < 1) {
    throw std::invalid_argument("Workload: batch must be >= 1");
  }
  if (opts_.worker_pairs < 1) {
    throw std::invalid_argument("Workload: worker_pairs must be >= 1");
  }
  program_ = opts_.kind == WorkloadKind::classify ? &net_.classify_program() : &net_.program();
  plan_ = ir::derive_plan(*program_, net_.ring());
}

offline::TripleStore Workload::preprocess(std::size_t queries, int threads,
                                          offline::GenerationReport* report) const {
  offline::OfflineGenerator gen(threads);
  gen.set_tracer(tracer_);  // the offline phase shares the workload timeline
  return gen.generate(
      plan_, queries, [](std::size_t q) { return SecureNetwork::query_dealer_seed(q); },
      report);
}

void Workload::use_store(offline::TripleStore* store, offline::ExhaustionPolicy policy) {
  if (store != nullptr && store->plan_fingerprint() != plan_.fingerprint()) {
    throw std::invalid_argument(
        "Workload::use_store: store fingerprint does not match this workload's plan "
        "(different model, or a logits store offered to a classify workload / vice versa)");
  }
  store_ = store;
  policy_ = policy;
}

WorkloadResult Workload::run(const std::vector<nn::Tensor>& inputs) {
  const std::size_t n = inputs.size();
  WorkloadResult out;
  stats_ = InferenceStats{};
  chunk_stats_.clear();
  if (n == 0) return out;
  const std::size_t base = next_query_;
  next_query_ += n;
  const auto lanes_per_chunk = static_cast<std::size_t>(opts_.batch);
  const std::size_t num_chunks = (n + lanes_per_chunk - 1) / lanes_per_chunk;

  // Store-backed serving claims one bundle per query up front: claims are
  // ordered, so the q-th query of this call maps to the store's next
  // unclaimed index — on a fresh store that is exactly the canonical
  // stream position the dealer path would use.
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  std::vector<std::pair<std::size_t, offline::QueryBundle*>> claims;
  if (store_ != nullptr) {
    claims.reserve(n);
    for (std::size_t q = 0; q < n; ++q) claims.push_back(store_->claim_next());
    if (tracing) tracer_->add(obs::Counter::store_claims, n);
  }
  const auto stream_position = [&](std::size_t q) {
    return store_ != nullptr ? claims[q].first : base + q;
  };

  if (opts_.kind == WorkloadKind::logits) {
    out.logits.resize(n);
  } else {
    out.labels.resize(n);
  }
  chunk_stats_.resize(num_chunks);

  const auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = c * lanes_per_chunk;
    const std::size_t hi = std::min(n, lo + lanes_per_chunk);
    const std::size_t lanes = hi - lo;
    // One fresh context per chunk, seeded with lane 0's canonical context
    // seed; every lane draws from its OWN canonical streams (ChunkLanes),
    // which is what pins each lane's output to the independent one-lane run
    // of the same position.
    std::vector<std::size_t> positions;
    std::vector<offline::QueryBundle*> bundles;
    for (std::size_t q = lo; q < hi; ++q) {
      positions.push_back(stream_position(q));
      if (store_ != nullptr) bundles.push_back(claims[q].second);
    }
    const ChunkLanes chunk(net_.ring(), positions, bundles, policy_);
    crypto::TwoPartyContext cctx(net_.ring(), chunk.context_seed(), net_.exec_mode(),
                                 net_.round_delay());
    // Per-chunk tracer: the chunk's counters (its channel meter's traffic
    // included) become its ChunkStats::trace, then merge into the workload
    // tracer (concurrent chunk workers each own their tracer, so there is
    // no cross-chunk tearing).
    obs::Tracer chunk_tracer(tracing);
    if (tracing) cctx.set_tracer(&chunk_tracer);
    const std::uint64_t chunk_begin = tracing ? obs::Tracer::now_us() : 0;

    cctx.reset_stats();
    ir::BatchExecOptions bopts;
    bopts.cfg = net_.config();
    bopts.lanes = chunk.lanes();
    const std::vector<nn::Tensor> chunk_inputs(inputs.begin() + static_cast<long>(lo),
                                               inputs.begin() + static_cast<long>(hi));
    ir::BatchExecResult br =
        ir::execute_batch(program(), net_.params(), cctx, chunk_inputs, bopts);
    for (std::size_t j = 0; j < lanes; ++j) {
      if (opts_.kind == WorkloadKind::logits) {
        out.logits[lo + j] = std::move(br.logits[j]);
      } else {
        out.labels[lo + j] = std::move(br.labels[j]);
      }
    }

    ChunkStats& cs = chunk_stats_[c];
    cs.first_query = stream_position(lo);
    cs.queries = lanes;
    const auto& chan = cctx.stats();
    cs.totals.comm_bytes = chan.total_bytes();
    cs.totals.weight_open_bytes = net_.weight_open_bytes();
    cs.totals.messages = chan.messages;
    cs.totals.rounds = chan.rounds;
    const crypto::TripleCounters tc = chunk.counters();
    cs.totals.elem_triples = tc.elem_triples;
    cs.totals.square_pairs = tc.square_pairs;
    cs.totals.matmul_triple_elems = tc.matmul_triple_elems;
    cs.totals.bilinear_triple_elems = tc.bilinear_triple_elems;
    cs.totals.bit_triples = tc.bit_triples;
    if (tracing) {
      chunk_tracer.complete_span("proto", "chunk", chunk_begin,
                                 static_cast<std::int64_t>(lanes));
      chunk_tracer.sample(obs::Sample::chunk_us, obs::Tracer::now_us() - chunk_begin);
      crypto::trace_traffic(chunk_tracer, chan);
      cs.trace = chunk_tracer.snapshot();
      tracer_->merge_from(chunk_tracer);
    }
  };

  const int workers = std::max(
      1, std::min(opts_.worker_pairs, static_cast<int>(num_chunks)));
  std::atomic<std::size_t> next{0};
  std::mutex err_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= num_chunks) break;
      try {
        run_chunk(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(num_chunks);  // drain the queue so other workers stop
        break;
      }
    }
  };
  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  for (const ChunkStats& cs : chunk_stats_) stats_.merge(cs.totals);
  return out;
}

}  // namespace pasnet::proto
