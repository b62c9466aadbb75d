// Counter object: an ALU-PAE configured as a modulo sequence generator.
//
// The paper's despreader and FFT64 mappings use counters to drive
// address generation and comparators ("A simple counter and comparator
// control the multiplexer stages", Section 3.2).
#pragma once

#include "src/xpp/alu_ops.hpp"
#include "src/xpp/object.hpp"

namespace rsp::xpp {

struct CounterParams {
  Word start = 0;
  Word step = 1;
  Word modulo = 0;  ///< > 0: wrap to start when the count reaches start+modulo*step
};

/// Emits start, start+step, ... on out0; emits 1 on out1 on the wrapping
/// step (else 0).  If in0 is bound it acts as a step-enable token: one
/// count per consumed token.
class CounterObject final : public Object {
 public:
  CounterObject(std::string name, CounterParams p)
      : Object(std::move(name), ObjectKind::kCounter),
        p_(p),
        value_(p.start),
        remaining_(p.modulo) {}

  const CounterParams& params() const { return p_; }

 protected:
  bool do_fire() override {
    const bool gated = in_bound(0);
    if (gated && !in_ready(0)) return false;
    if (!out_ready(0) || !out_ready(1)) return false;
    out_write(0, value_);
    out_write(1, alu::counter_step(value_, remaining_, p_.start, p_.step,
                                   p_.modulo));
    if (gated) in_consume(0);
    return true;
  }

 private:
  friend class CompiledProgram;  ///< replays the count/wrap sequence
  friend class BatchedReplayEngine;  ///< shadows the registers per lane
  friend class SnapshotAccess;  ///< bit-exact save/restore (snapshot.hpp)

  CounterParams p_;
  Word value_;
  Word remaining_;
};

}  // namespace rsp::xpp
