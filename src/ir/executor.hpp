#pragma once
// The IR interpreter: runs a scheduled SecureProgram under the 2PC
// protocol stack.
//
// Parameters are secret-shared once (share_parameters) and reused across
// queries.  execute_batch() runs K query lanes inside ONE context: it walks
// the program in order, every op stages all K lanes' instances on the
// context's buffers, and each round group flushes together — one exchange
// for all its single-round openings, one shared phase walk for its
// comparisons — so a group's OT dance, AND levels and openings are shared
// across the batch and its rounds are independent of K.  There is one
// schedule — the program's round groups.  Staging preserves the
// program-order dealer and PRNG draw sequence, so regrouping a program (e.g.
// one group per op, the differential oracle of the test suites) changes
// rounds and messages, never values.
//
// Every lane shares its input with the canonical client sharing
// (share_client_input).  A caller that passes Lanes gives each lane its own
// triple source and share-randomness pair; seeded like fresh per-query
// contexts (proto::ChunkLanes), they make the batched logits bit-identical
// to K independent runs.  An independent run is execute_batch with one lane
// and no Lanes: it draws from the context's own streams.

#include <functional>

#include "ir/program.hpp"
#include "proto/secure_ops.hpp"

namespace pasnet::ir {

/// Secret-shared program parameters, aligned with SecureProgram::ops.
struct CompiledParams {
  std::vector<crypto::Shared> weight;
  std::vector<crypto::Shared> bias;
};

/// Fixed-point encodes and secret-shares every op's parameters, in program
/// order (weight, then bias when present) — the draw order the historical
/// compiler used, so shared weights are reproducible from the same seed.
[[nodiscard]] CompiledParams share_parameters(const SecureProgram& program, crypto::Prng& prng,
                                              const crypto::RingConfig& rc);

/// The canonical client sharing of one lane's input: a fresh client PRG
/// per lane, so a lane's share values (and with them its truncation noise)
/// are the same whether the executor's input op or a remote client
/// (net::PartySession::run_batch) computes them.
[[nodiscard]] proto::SecureTensor share_client_input(const nn::Tensor& input,
                                                     const crypto::RingConfig& rc);

/// One lane's randomness streams (non-owning).  The executor installs them
/// on the context around every draw of the lane's instances — `triples` as
/// the triple source, (prng0, prng1) as the prng() override — and restores
/// the context's own installation on return.
struct Lane {
  crypto::TripleSource* triples = nullptr;
  crypto::Prng* prng0 = nullptr;
  crypto::Prng* prng1 = nullptr;
};

/// Knobs of a K-lane batched run.  All hooks receive the lane index first.
struct BatchExecOptions {
  proto::SecureConfig cfg;
  /// (lane, descriptor-layer tag), right before that lane's instance draws
  /// its correlated randomness (the preprocessing-plan oracle hook).
  std::function<void(std::size_t, int)> layer_hook;
  /// (lane, op index, output tensor) as each lane's op output lands, after
  /// its round group delivers (argmax terminals are not reported).
  std::function<void(std::size_t, std::size_t, const proto::SecureTensor&)> op_hook;
  /// Per-lane randomness streams (size K; must outlive the call).  When
  /// empty, every lane draws from the context's own triple source and
  /// share streams.
  std::vector<Lane> lanes;
  /// Per-lane pre-shared inputs (non-owning; must outlive the call).  When
  /// set (size K), lane q's input op delivers a copy of *input_shares[q]
  /// instead of sharing inputs[q] — the remote (two-process) path.
  std::vector<const proto::SecureTensor*> input_shares;
};

/// Per-lane outcomes of a batched run.
struct BatchExecResult {
  std::vector<nn::Tensor> logits;        ///< per lane (empty for argmax programs)
  std::vector<std::vector<int>> labels;  ///< per lane (argmax programs only)
};

/// Runs K queries in lockstep inside one context.  Each op stages all K
/// lanes' instances into the same round group before the group flushes, so
/// comparison rounds are shared batch-wide (a group costs the rounds of
/// ONE comparison stack regardless of K) and the terminal logits of all
/// lanes reveal in one joint opening.  Lane q draws from opts.lanes[q]
/// (when given), making each lane's transcript values bit-identical to an
/// independent one-lane run.  Argmax terminals run per lane — the
/// tournament is not a staged op — so label programs pay their terminal
/// rounds K times.  Throws std::invalid_argument when opts.lanes or
/// opts.input_shares does not match the lane count.
[[nodiscard]] BatchExecResult execute_batch(const SecureProgram& program,
                                            const CompiledParams& params,
                                            crypto::TwoPartyContext& ctx,
                                            const std::vector<nn::Tensor>& inputs,
                                            const BatchExecOptions& opts = BatchExecOptions{});

}  // namespace pasnet::ir
