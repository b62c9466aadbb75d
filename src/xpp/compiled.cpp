// Compiled epoch replay: symbolic verification, lowering, SoA replay.
//
// Soundness argument (see compiled.hpp for the lifecycle): given the
// entry state and the per-phase guards, the token *topology* of a
// period is value-independent — every value-dependent decision the
// interpreter can take (demux route, merge select, gate pass, accum
// dump, input-queue depth) is either proven constant at compile time
// or pinned by a guard that is re-checked each phase before any
// mutation.  The builder replays the recorded period symbolically over
// the net has/consumed-mask state, checking each recorded fire against
// the interpreter's exact readiness rules, proving every non-fired
// object could not have fired (conservatively: an unknown data
// decision counts as "could fire" and refuses the compile), and
// requiring the end state to equal the entry state (closure).  Values
// then flow through the lowered op list with the interpreter's own
// arithmetic (src/xpp/alu_ops.hpp), so replayed epochs are bit-identical
// to interpretation.
#include "src/xpp/compiled.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/fnv.hpp"
#include "src/xpp/alu.hpp"
#include "src/xpp/alu_ops.hpp"
#include "src/xpp/counter.hpp"
#include "src/xpp/fault.hpp"
#include "src/xpp/io.hpp"
#include "src/xpp/ram.hpp"
#include "src/xpp/sim.hpp"

namespace rsp::xpp {

std::uint64_t hash_cycle_events(const std::vector<CycleEvent>& evs) {
  Fnv1a f;
  for (const CycleEvent& e : evs) {
    f.mix(static_cast<std::uint64_t>(e.kind));
    f.mix(static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(e.ptr)));
    f.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.sink)));
  }
  f.mix(evs.size() + 1);
  return f.value();
}

// ---------------------------------------------------------------------------
// Builder: symbolic verification + lowering
// ---------------------------------------------------------------------------

struct CompiledProgram::Builder {
  Simulator& sim;
  CompiledProgram& pr;

  std::unordered_map<const Net*, int> slot_of;
  std::unordered_map<const Object*, int> idx_of;

  // Symbolic evolving net state.  has changes only at the phase commit;
  // mask/stgd evolve as segments are applied in recorded order.
  std::vector<std::uint8_t> has, stgd;
  std::vector<std::uint32_t> mask, full;
  std::vector<std::uint32_t> mask_start;  ///< snapshot at phase start
  std::vector<std::uint8_t> has_entry;
  std::vector<std::uint32_t> mask_entry;

  std::unordered_map<const Object*, int> fifo_sz;
  std::unordered_map<const Object*, bool> tog;
  std::unordered_set<const Object*> firing_inputs;
  /// Input objects' assumed external_pending() > 0 (trace has_work).
  std::unordered_map<const Object*, bool> ext_work;
  std::unordered_map<long long, int> cslot;  ///< (obj_idx, port) -> const slot

  std::vector<Guard> guards;  ///< current phase, flushed into pr
  std::unordered_map<const Object*, std::uint8_t> fired;  ///< obj -> op flags

  Builder(Simulator& s, CompiledProgram& p) : sim(s), pr(p) {}

  /// One recorded fire and the consume/stage events it produced.
  struct Seg {
    Object* obj = nullptr;
    std::vector<std::pair<const Net*, int>> consumes;
    std::vector<const Net*> stages;
    std::vector<char> cuse, suse;
  };

  // -- port helpers ---------------------------------------------------------
  /// The net feeding input @p i, unless a constant shadows it (in_ready
  /// / in_peek / in_consume all give constants precedence).
  const Net* net_port(const Object* o, int i) const {
    return o->in_const(i) ? nullptr : o->in_net(i);
  }

  int in_slot(const Object* o, int i) {
    if (const auto c = o->in_const(i)) {
      const long long key =
          static_cast<long long>(idx_of.at(o)) * kMaxIn + i;
      const auto it = cslot.find(key);
      if (it != cslot.end()) return it->second;
      pr.const_values_.push_back(*c);
      const int s = pr.n_nets_ + static_cast<int>(pr.const_values_.size()) - 1;
      cslot.emplace(key, s);
      return s;
    }
    const Net* n = o->in_net(i);
    return n != nullptr ? slot_of.at(n) : -1;
  }

  /// Unbound outputs discard into the dummy slot (index n_nets_).
  int out_slot(const Object* o, int i) const {
    const Net* n = o->out_net(i);
    return n != nullptr ? slot_of.at(n) : pr.n_nets_;
  }

  // -- symbolic readiness (current, mid-phase, exact) -----------------------
  bool in_ready_cur(const Object* o, int i) const {
    if (o->in_const(i)) return true;
    const Net* n = o->in_net(i);
    if (n == nullptr) return false;
    const int s = slot_of.at(n);
    return has[s] != 0 && ((mask[s] >> o->in_sink(i)) & 1u) == 0;
  }

  bool out_ready_cur(const Object* o, int i) const {
    const Net* n = o->out_net(i);
    if (n == nullptr) return true;
    const int s = slot_of.at(n);
    return stgd[s] == 0 && (has[s] == 0 || (mask[s] & full[s]) == full[s]);
  }

  /// Phase-start readiness.  Exact for a non-fired object: only the
  /// object itself could consume its own sink bit, and has[] changes
  /// only at commit.
  bool in_ready_start(const Object* o, int i) const {
    if (o->in_const(i)) return true;
    const Net* n = o->in_net(i);
    if (n == nullptr) return false;
    const int s = slot_of.at(n);
    return has[s] != 0 && ((mask_start[s] >> o->in_sink(i)) & 1u) == 0;
  }

  /// "Was this output slot free at any point of the phase?"  Exact for
  /// a non-fired object: it is the net's only producer (so staged stays
  /// clear) and the consumed mask only grows, so end-of-phase freedom
  /// is the most permissive the phase ever saw.
  bool out_free_any(const Object* o, int i) const {
    return out_ready_cur(o, i);
  }

  // -- symbolic effects -----------------------------------------------------
  bool sym_consume(const Object* o, int i) {
    const Net* n = net_port(o, i);
    if (n == nullptr) return true;  // constant / unbound: no-op
    const int s = slot_of.at(n);
    const int sink = o->in_sink(i);
    if (has[s] == 0 || ((mask[s] >> sink) & 1u) != 0) return false;
    mask[s] |= 1u << sink;
    return true;
  }

  bool sym_stage(const Object* o, int i) {
    const Net* n = o->out_net(i);
    if (n == nullptr) return true;
    const int s = slot_of.at(n);
    if (stgd[s] != 0 || (has[s] != 0 && (mask[s] & full[s]) != full[s])) {
      return false;
    }
    stgd[s] = 1;
    return true;
  }

  // -- recorded-event bookkeeping -------------------------------------------
  bool take_consume(Seg& g, const Object* o, int i) const {
    const Net* n = o->in_net(i);
    if (n == nullptr) return false;
    const int sink = o->in_sink(i);
    for (std::size_t k = 0; k < g.consumes.size(); ++k) {
      if (g.cuse[k] == 0 && g.consumes[k].first == n &&
          g.consumes[k].second == sink) {
        g.cuse[k] = 1;
        return true;
      }
    }
    return false;
  }

  bool take_stage(Seg& g, const Object* o, int i) const {
    const Net* n = o->out_net(i);
    if (n == nullptr) return false;
    for (std::size_t k = 0; k < g.stages.size(); ++k) {
      if (g.suse[k] == 0 && g.stages[k] == n) {
        g.suse[k] = 1;
        return true;
      }
    }
    return false;
  }

  /// take_consume + sym_consume for a port that must have consumed.
  bool expect_consume(Seg& g, const Object* o, int i) {
    if (net_port(o, i) != nullptr && !take_consume(g, o, i)) return false;
    return sym_consume(o, i);
  }

  /// take_stage + sym_stage for a port that must have staged.
  bool expect_stage(Seg& g, const Object* o, int i) {
    if (o->out_net(i) != nullptr && !take_stage(g, o, i)) return false;
    return sym_stage(o, i);
  }

  void guard_truth(int slot, bool expect) {
    guards.push_back({Guard::Kind::kValueTruth, expect, slot, nullptr});
  }

  // -- setup ----------------------------------------------------------------
  bool enumerate() {
    for (auto& [gid, g] : sim.groups_) {
      (void)gid;
      for (auto& o : g.objects) {
        idx_of.emplace(o.get(), static_cast<int>(pr.objs_.size()));
        pr.objs_.push_back(o.get());
      }
      for (auto& n : g.nets) {
        slot_of.emplace(n.get(), static_cast<int>(pr.nets_.size()));
        pr.nets_.push_back(n.get());
      }
    }
    pr.n_nets_ = static_cast<int>(pr.nets_.size());
    pr.n_objs_ = static_cast<int>(pr.objs_.size());
    if (pr.n_objs_ == 0) return false;
    pr.const_values_.push_back(0);  // dummy discard slot == n_nets_

    has.resize(pr.n_nets_);
    stgd.assign(pr.n_nets_, 0);
    mask.resize(pr.n_nets_);
    full.resize(pr.n_nets_);
    for (int i = 0; i < pr.n_nets_; ++i) {
      const Net* n = pr.nets_[i];
      if (n->staged_.has_value()) return false;  // not a cycle boundary
      has[i] = n->has_value_ ? 1 : 0;
      mask[i] = n->consumed_mask_;
      full[i] = n->num_sinks_ >= 32 ? ~0u : ((1u << n->num_sinks_) - 1u);
    }
    has_entry = has;
    mask_entry = mask;

    for (Object* o : pr.objs_) {
      if (o->kind() == ObjectKind::kRam) {
        auto* rm = static_cast<RamObject*>(o);
        if (rm->params().mode == RamMode::kFifo) {
          pr.fifos_.push_back(rm);
          pr.fifo_entry_.push_back(rm->fifo_size());
          fifo_sz.emplace(o, rm->fifo_size());
        }
      } else if (o->kind() == ObjectKind::kAlu) {
        auto* al = static_cast<AluObject*>(o);
        if (al->params().op == Opcode::kMergeAlt) {
          pr.merges_.push_back(al);
          pr.merge_entry_.push_back(al->merge_toggle_ ? 1 : 0);
          tog.emplace(o, al->merge_toggle_);
        }
      }
    }
    return true;
  }

  bool prepass(const std::vector<const CycleRecord*>& period) {
    for (const CycleRecord* r : period) {
      for (const CycleEvent& e : r->evs) {
        if (e.kind == CycleEvent::Kind::kFire) {
          const auto* o = static_cast<const Object*>(e.ptr);
          if (idx_of.find(o) == idx_of.end()) return false;
          if (o->kind() == ObjectKind::kInput) firing_inputs.insert(o);
        } else {
          if (slot_of.find(static_cast<const Net*>(e.ptr)) == slot_of.end()) {
            return false;
          }
        }
      }
    }
    // Classify input channels.  A firing input must hold samples at
    // every phase (guarded); a never-firing one must keep its entry
    // emptiness (feed deoptimizes, and it never pops).
    for (Object* o : pr.objs_) {
      if (o->kind() != ObjectKind::kInput) continue;
      auto* in = static_cast<InputObject*>(o);
      if (firing_inputs.count(o) != 0) {
        if (in->pending() == 0) return false;  // about to guard-fail
        pr.req_nonempty_inputs_.push_back(in);
        ext_work[o] = true;
      } else {
        const bool empty = in->pending() == 0;
        pr.nonfiring_inputs_.push_back(in);
        pr.nonfiring_empty_.push_back(empty ? 1 : 0);
        ext_work[o] = !empty;
      }
    }
    return true;
  }

  // -- per-fire lowering ----------------------------------------------------
  bool lower_fire(Seg& g) {
    Object* o = g.obj;
    Op op;
    op.obj = o;
    switch (o->kind()) {
      case ObjectKind::kInput: {
        if (!out_ready_cur(o, 0)) return false;
        if (!expect_stage(g, o, 0)) return false;
        op.kind = CKind::kInput;
        op.o0 = out_slot(o, 0);
        break;
      }
      case ObjectKind::kOutput: {
        if (!in_ready_cur(o, 0)) return false;
        if (!expect_consume(g, o, 0)) return false;
        op.kind = CKind::kOutput;
        op.a = in_slot(o, 0);
        if (op.a < 0) return false;
        break;
      }
      case ObjectKind::kCounter: {
        const bool gated = o->in_bound(0);
        if (gated && !in_ready_cur(o, 0)) return false;
        if (!out_ready_cur(o, 0) || !out_ready_cur(o, 1)) return false;
        if (!expect_stage(g, o, 0)) return false;
        if (!expect_stage(g, o, 1)) return false;
        if (gated && !expect_consume(g, o, 0)) return false;
        op.kind = CKind::kCounter;
        op.o0 = out_slot(o, 0);
        op.o1 = out_slot(o, 1);
        break;
      }
      case ObjectKind::kRam:
        if (!lower_ram(g, op)) return false;
        break;
      case ObjectKind::kAlu:
        if (!lower_alu(g, op)) return false;
        break;
    }
    for (const char u : g.cuse) {
      if (u == 0) return false;  // unattributed consume event
    }
    for (const char u : g.suse) {
      if (u == 0) return false;  // unattributed stage event
    }
    fired.emplace(o, op.flags);
    pr.ops_.push_back(op);
    return true;
  }

  bool lower_ram(Seg& g, Op& op) {
    auto* rm = static_cast<RamObject*>(g.obj);
    Object* o = g.obj;
    switch (rm->params().mode) {
      case RamMode::kRam: {
        // Constant-bound ports would make transfers invisible in the
        // event stream (consumes are no-ops): refuse.
        if (o->in_const(0) || o->in_const(1) || o->in_const(2)) return false;
        const bool read = o->in_net(0) != nullptr && take_consume(g, o, 0);
        const bool write = o->in_net(1) != nullptr && take_consume(g, o, 1);
        if (!read && !write) return false;
        if (read) {
          if (!in_ready_cur(o, 0) || !out_ready_cur(o, 0)) return false;
          if (o->out_net(0) != nullptr && !take_stage(g, o, 0)) return false;
          if (!sym_stage(o, 0)) return false;
          if (!sym_consume(o, 0)) return false;
        }
        if (write) {
          if (!(o->in_net(2) != nullptr && take_consume(g, o, 2))) {
            return false;
          }
          if (!sym_consume(o, 1) || !sym_consume(o, 2)) return false;
        }
        // Skipped ports are re-checked for forcedness after the phase
        // (needs end-of-phase state; see lower_phase).
        op.kind = CKind::kRam;
        op.flags = static_cast<std::uint8_t>((read ? kFlagRead : 0) |
                                             (write ? kFlagWrite : 0));
        op.a = in_slot(o, 0);
        op.b = in_slot(o, 1);
        op.c = in_slot(o, 2);
        op.o0 = out_slot(o, 0);
        break;
      }
      case RamMode::kFifo: {
        if (o->in_const(0)) return false;  // invisible pushes
        const bool push = o->in_net(0) != nullptr && take_consume(g, o, 0);
        const bool pop = o->out_net(0) != nullptr && take_stage(g, o, 0);
        int& sz = fifo_sz.at(o);
        // The interpreter pushes/pops whenever it can; the record must
        // agree exactly or the period is not self-consistent.
        const bool can_push = o->in_net(0) != nullptr && in_ready_cur(o, 0) &&
                              sz < rm->params().capacity;
        if (push != can_push) return false;
        if (push) {
          if (!sym_consume(o, 0)) return false;
          ++sz;
        }
        const bool can_pop =
            sz > 0 && o->out_net(0) != nullptr && out_ready_cur(o, 0);
        if (pop != can_pop) return false;
        if (pop) {
          if (!sym_stage(o, 0)) return false;
          --sz;
        }
        if (!push && !pop) return false;
        op.kind = CKind::kFifo;
        op.flags = static_cast<std::uint8_t>((push ? kFlagRead : 0) |
                                             (pop ? kFlagWrite : 0));
        op.a = in_slot(o, 0);
        op.o0 = out_slot(o, 0);
        break;
      }
      case RamMode::kLut: {
        if (!in_ready_cur(o, 0) || !out_ready_cur(o, 0)) return false;
        if (!expect_consume(g, o, 0)) return false;
        if (!expect_stage(g, o, 0)) return false;
        op.kind = CKind::kLut;
        op.a = in_slot(o, 0);
        if (op.a < 0) return false;
        op.o0 = out_slot(o, 0);
        break;
      }
      case RamMode::kCircularLut: {
        const bool gated = o->in_bound(0);
        if (gated && !in_ready_cur(o, 0)) return false;
        if (!out_ready_cur(o, 0)) return false;
        if (!expect_stage(g, o, 0)) return false;
        if (gated && !expect_consume(g, o, 0)) return false;
        op.kind = CKind::kCircLut;
        op.o0 = out_slot(o, 0);
        break;
      }
    }
    return true;
  }

  bool lower_alu(Seg& g, Op& op) {
    auto* al = static_cast<AluObject*>(g.obj);
    Object* o = g.obj;
    const Opcode aop = al->params().op;
    const std::uint8_t sat = al->params().saturate ? kFlagSaturate : 0;
    op.shift = static_cast<std::int16_t>(al->params().shift);
    switch (aop) {
      case Opcode::kDemux: {
        if (!in_ready_cur(o, 0) || !in_ready_cur(o, 1)) return false;
        int route = -1;
        if (o->out_net(0) != nullptr && take_stage(g, o, 0)) {
          route = 0;
        } else if (o->out_net(1) != nullptr && take_stage(g, o, 1)) {
          route = 1;
        }
        const bool b0 = o->out_bound(0), b1 = o->out_bound(1);
        bool blind = false;
        if (route < 0) {
          if (b0 && b1) return false;  // a bound route must have staged
          if (!b0 && !b1) {
            blind = true;  // both discarded: route is unobservable, and
                           // irrelevant — fire has no routed effect
          } else {
            route = b0 ? 1 : 0;  // token went to the unbound side
          }
        }
        if (!blind) {
          if (const auto c0 = o->in_const(0)) {
            if (((*c0 != 0) ? 1 : 0) != route) return false;
          } else {
            guard_truth(in_slot(o, 0), route == 1);
          }
          if (!sym_stage(o, route)) return false;
        }
        if (!expect_consume(g, o, 0)) return false;
        if (!expect_consume(g, o, 1)) return false;
        if (!blind && o->out_net(route) != nullptr) {
          op.kind = CKind::kCopy;
          op.a = in_slot(o, 1);
          op.o0 = out_slot(o, route);
        } else {
          op.kind = CKind::kDrop;
        }
        break;
      }
      case Opcode::kMergeAlt: {
        bool& t = tog.at(o);
        const int src = t ? 1 : 0;
        if (!in_ready_cur(o, src) || !out_ready_cur(o, 0)) return false;
        if (!expect_consume(g, o, src)) return false;
        if (!expect_stage(g, o, 0)) return false;
        op.kind = CKind::kMergeAltCopy;
        op.a = in_slot(o, src);
        if (op.a < 0) return false;
        op.o0 = out_slot(o, 0);
        t = !t;
        break;
      }
      case Opcode::kMergeSel: {
        if (!in_ready_cur(o, 0)) return false;
        int src = -1;
        bool src_taken = false;
        if (const auto c0 = o->in_const(0)) {
          src = (*c0 != 0) ? 2 : 1;
        } else {
          const bool n1 = net_port(o, 1) != nullptr;
          const bool n2 = net_port(o, 2) != nullptr;
          if (n1 && take_consume(g, o, 1)) {
            src = 1;
            src_taken = true;
          } else if (n2 && take_consume(g, o, 2)) {
            src = 2;
            src_taken = true;
          } else if (!n1 && o->in_const(1) && n2) {
            src = 1;  // the net side did not consume, so the const did
          } else if (!n2 && o->in_const(2) && n1) {
            src = 2;
          } else {
            return false;  // both alternatives const: selection unknowable
          }
          guard_truth(in_slot(o, 0), src == 2);
        }
        if (!in_ready_cur(o, src)) return false;
        if (!src_taken && net_port(o, src) != nullptr &&
            !take_consume(g, o, src)) {
          return false;
        }
        if (!sym_consume(o, src)) return false;
        if (!expect_consume(g, o, 0)) return false;
        if (!expect_stage(g, o, 0)) return false;
        op.kind = CKind::kCopy;
        op.a = in_slot(o, src);
        if (op.a < 0) return false;
        op.o0 = out_slot(o, 0);
        break;
      }
      case Opcode::kGate: {
        if (!in_ready_cur(o, 0) || !in_ready_cur(o, 1)) return false;
        bool pass = false;
        if (o->out_net(0) != nullptr) {
          pass = take_stage(g, o, 0);
          if (const auto c1 = o->in_const(1)) {
            if ((*c1 != 0) != pass) return false;
          } else {
            guard_truth(in_slot(o, 1), pass);
          }
          if (pass && !sym_stage(o, 0)) return false;
        }
        // Unbound out0: both truths fire identically with no routed
        // effect, so no guard is needed.
        if (!expect_consume(g, o, 0)) return false;
        if (!expect_consume(g, o, 1)) return false;
        if (pass) {
          op.kind = CKind::kCopy;
          op.a = in_slot(o, 0);
          if (op.a < 0) return false;
          op.o0 = out_slot(o, 0);
        } else {
          op.kind = CKind::kDrop;
        }
        break;
      }
      case Opcode::kAccum:
      case Opcode::kCAccum: {
        if (!in_ready_cur(o, 0) || !in_ready_cur(o, 1)) return false;
        bool dump = false;
        const auto c1 = o->in_const(1);
        if (o->out_net(0) != nullptr) {
          dump = take_stage(g, o, 0);
          if (c1) {
            if ((*c1 != 0) != dump) return false;
          } else {
            guard_truth(in_slot(o, 1), dump);
          }
          if (dump && !sym_stage(o, 0)) return false;
        } else if (c1) {
          dump = *c1 != 0;  // unobservable but constant
        } else {
          return false;  // net-driven dump resets acc_ invisibly
        }
        if (!expect_consume(g, o, 0)) return false;
        if (!expect_consume(g, o, 1)) return false;
        op.kind = aop == Opcode::kAccum ? CKind::kAccum : CKind::kCAccum;
        op.flags = static_cast<std::uint8_t>(sat | (dump ? kFlagDump : 0));
        op.a = in_slot(o, 0);
        if (op.a < 0) return false;
        op.o0 = out_slot(o, 0);
        break;
      }
      default: {
        const OpInfo info = op_info(aop);
        for (int i = 0; i < kMaxIn; ++i) {
          if (((info.in_mask >> i) & 1u) != 0 && !in_ready_cur(o, i)) {
            return false;
          }
        }
        for (int j = 0; j < kMaxOut; ++j) {
          if (((info.out_mask >> j) & 1u) != 0 && !out_ready_cur(o, j)) {
            return false;
          }
        }
        for (int i = 0; i < kMaxIn; ++i) {
          if (((info.in_mask >> i) & 1u) != 0 && !expect_consume(g, o, i)) {
            return false;
          }
        }
        for (int j = 0; j < kMaxOut; ++j) {
          if (((info.out_mask >> j) & 1u) != 0 && !expect_stage(g, o, j)) {
            return false;
          }
        }
        op.kind = CKind::kAlu;
        op.op = aop;
        op.flags = sat;
        op.a = ((info.in_mask >> 0) & 1u) != 0 ? in_slot(o, 0) : -1;
        op.b = ((info.in_mask >> 1) & 1u) != 0 ? in_slot(o, 1) : -1;
        op.c = ((info.in_mask >> 2) & 1u) != 0 ? in_slot(o, 2) : -1;
        if ((((info.in_mask >> 0) & 1u) != 0 && op.a < 0) ||
            (((info.in_mask >> 1) & 1u) != 0 && op.b < 0) ||
            (((info.in_mask >> 2) & 1u) != 0 && op.c < 0)) {
          return false;
        }
        op.o0 = ((info.out_mask >> 0) & 1u) != 0 ? out_slot(o, 0) : -1;
        op.o1 = ((info.out_mask >> 1) & 1u) != 0 ? out_slot(o, 1) : -1;
        break;
      }
    }
    return true;
  }

  // -- maximality: could a non-fired object have fired? ---------------------
  bool could_fire(const Object* o) const {
    switch (o->kind()) {
      case ObjectKind::kInput:
        return ext_work.at(o) && out_free_any(o, 0);
      case ObjectKind::kOutput:
        return in_ready_start(o, 0);
      case ObjectKind::kCounter: {
        if (o->in_bound(0) && !in_ready_start(o, 0)) return false;
        return out_free_any(o, 0) && out_free_any(o, 1);
      }
      case ObjectKind::kRam: {
        const auto* rm = static_cast<const RamObject*>(o);
        switch (rm->params().mode) {
          case RamMode::kRam:
            return (o->in_bound(0) && in_ready_start(o, 0) &&
                    out_free_any(o, 0)) ||
                   (o->in_bound(1) && o->in_bound(2) &&
                    in_ready_start(o, 1) && in_ready_start(o, 2));
          case RamMode::kFifo: {
            const int sz = fifo_sz.at(o);  // unchanged: it did not fire
            return (o->in_bound(0) && in_ready_start(o, 0) &&
                    sz < rm->params().capacity) ||
                   (sz > 0 && o->out_bound(0) && out_free_any(o, 0));
          }
          case RamMode::kLut:
            return in_ready_start(o, 0) && out_free_any(o, 0);
          case RamMode::kCircularLut:
            return (!o->in_bound(0) || in_ready_start(o, 0)) &&
                   out_free_any(o, 0);
        }
        return true;
      }
      case ObjectKind::kAlu: {
        const auto* al = static_cast<const AluObject*>(o);
        switch (al->params().op) {
          case Opcode::kDemux: {
            if (!in_ready_start(o, 0) || !in_ready_start(o, 1)) return false;
            if (const auto c0 = o->in_const(0)) {
              return out_free_any(o, (*c0 != 0) ? 1 : 0);
            }
            return out_free_any(o, 0) || out_free_any(o, 1);
          }
          case Opcode::kMergeAlt:
            return in_ready_start(o, tog.at(o) ? 1 : 0) && out_free_any(o, 0);
          case Opcode::kMergeSel: {
            if (!in_ready_start(o, 0)) return false;
            if (const auto c0 = o->in_const(0)) {
              const int src = (*c0 != 0) ? 2 : 1;
              return in_ready_start(o, src) && out_free_any(o, 0);
            }
            return (in_ready_start(o, 1) || in_ready_start(o, 2)) &&
                   out_free_any(o, 0);
          }
          case Opcode::kGate:
          case Opcode::kAccum:
          case Opcode::kCAccum: {
            if (!in_ready_start(o, 0) || !in_ready_start(o, 1)) return false;
            if (const auto c1 = o->in_const(1)) {
              return *c1 == 0 ? true : out_free_any(o, 0);
            }
            return true;  // data decides the out requirement: could fire
          }
          default: {
            const OpInfo info = op_info(al->params().op);
            for (int i = 0; i < kMaxIn; ++i) {
              if (((info.in_mask >> i) & 1u) != 0 && !in_ready_start(o, i)) {
                return false;
              }
            }
            for (int j = 0; j < kMaxOut; ++j) {
              if (((info.out_mask >> j) & 1u) != 0 && !out_free_any(o, j)) {
                return false;
              }
            }
            return true;
          }
        }
      }
    }
    return true;
  }

  // -- one phase ------------------------------------------------------------
  bool lower_phase(const CycleRecord& r) {
    pr.phase_has_.insert(pr.phase_has_.end(), has.begin(), has.end());
    pr.phase_mask_.insert(pr.phase_mask_.end(), mask.begin(), mask.end());
    // Phase-start FIFO depths and merge toggles, so any phase boundary
    // can serve as a re-arm entry (not just phase 0).
    for (RamObject* f : pr.fifos_) pr.fifo_phase_.push_back(fifo_sz.at(f));
    for (AluObject* m : pr.merges_) {
      pr.merge_phase_.push_back(tog.at(m) ? 1 : 0);
    }
    mask_start = mask;
    guards.clear();
    fired.clear();
    const std::size_t op_begin = pr.ops_.size();
    // Every firing input is guarded non-empty at every phase: the pops
    // are unconditional, and the trace classifier assumes has_work.
    for (InputObject* in : pr.req_nonempty_inputs_) {
      guards.push_back({Guard::Kind::kInputNonEmpty, true, -1, in});
    }

    // Parse the event stream into fire segments, lowering in order.
    std::vector<std::pair<const Net*, int>> pc;
    std::vector<const Net*> ps;
    for (const CycleEvent& e : r.evs) {
      switch (e.kind) {
        case CycleEvent::Kind::kConsume:
          pc.emplace_back(static_cast<const Net*>(e.ptr), e.sink);
          break;
        case CycleEvent::Kind::kStage:
          ps.push_back(static_cast<const Net*>(e.ptr));
          break;
        case CycleEvent::Kind::kFire: {
          const auto it = idx_of.find(static_cast<const Object*>(e.ptr));
          if (it == idx_of.end()) return false;
          Seg g;
          g.obj = pr.objs_[static_cast<std::size_t>(it->second)];
          g.consumes = std::move(pc);
          g.stages = std::move(ps);
          g.cuse.assign(g.consumes.size(), 0);
          g.suse.assign(g.stages.size(), 0);
          pc.clear();
          ps.clear();
          if (fired.count(g.obj) != 0) return false;  // one fire per cycle
          if (!lower_fire(g)) return false;
          break;
        }
      }
    }
    if (!pc.empty() || !ps.empty()) return false;  // orphan events
    if (pr.ops_.size() == op_begin) return false;  // zero-fire phase

    // Maximality for non-fired objects; forcedness for the RAM ports a
    // partial fire skipped.
    for (Object* o : pr.objs_) {
      const auto fit = fired.find(o);
      if (fit != fired.end()) {
        if (o->kind() == ObjectKind::kRam) {
          const auto* rm = static_cast<const RamObject*>(o);
          if (rm->params().mode == RamMode::kRam) {
            const std::uint8_t f = fit->second;
            if ((f & kFlagRead) == 0 && o->in_bound(0) &&
                in_ready_start(o, 0) && out_free_any(o, 0)) {
              return false;
            }
            if ((f & kFlagWrite) == 0 && o->in_bound(1) && o->in_bound(2) &&
                in_ready_start(o, 1) && in_ready_start(o, 2)) {
              return false;
            }
          }
        }
        continue;
      }
      if (could_fire(o)) return false;
    }

    // Symbolic superset commit (drop-then-latch, like Net::commit).
    std::vector<std::uint8_t> latched(static_cast<std::size_t>(pr.n_nets_), 0);
    for (int i = 0; i < pr.n_nets_; ++i) {
      if (has[i] != 0 && (mask[i] & full[i]) == full[i]) {
        has[i] = 0;
        mask[i] = 0;
      }
      if (stgd[i] != 0) {
        pr.latch_slots_.push_back(i);
        latched[static_cast<std::size_t>(i)] = 1;
        has[i] = 1;
        mask[i] = 0;
        stgd[i] = 0;
      }
    }
    pr.latch_end_.push_back(static_cast<std::int32_t>(pr.latch_slots_.size()));
    pr.op_end_.push_back(static_cast<std::int32_t>(pr.ops_.size()));
    pr.guards_.insert(pr.guards_.end(), guards.begin(), guards.end());
    pr.guard_end_.push_back(static_cast<std::int32_t>(pr.guards_.size()));

    // Post-commit trace deltas: net bits, then the on_cycle object
    // classification against the post-commit state.
    for (int i = 0; i < pr.n_nets_; ++i) {
      std::uint8_t b = 0;
      if (has[i] != 0) b |= kNetOccupied;
      if (latched[static_cast<std::size_t>(i)] != 0) b |= kNetLatched;
      pr.tnet_bits_.push_back(b);
    }
    for (Object* o : pr.objs_) {
      pr.tobj_cls_.push_back(classify(o));
    }
    return true;
  }

  bool in_ready_post(const Object* o, int i) const {
    if (o->in_const(i)) return true;
    const Net* n = o->in_net(i);
    if (n == nullptr) return false;
    const int s = slot_of.at(n);
    return has[s] != 0 && ((mask[s] >> o->in_sink(i)) & 1u) == 0;
  }

  /// Mirror Tracer::on_cycle for a post-commit boundary.  Post-commit a
  /// net can never be has-and-fully-consumed (the drop just ran), so
  /// can_write reduces to !has.
  std::uint8_t classify(const Object* o) const {
    if (fired.count(o) != 0) return kClsFired;
    bool has_work = false;
    const auto ew = ext_work.find(o);
    if (ew != ext_work.end()) has_work = ew->second;
    for (int i = 0; i < kMaxIn && !has_work; ++i) {
      const Net* n = o->in_net(i);
      if (n == nullptr) continue;
      const int s = slot_of.at(n);
      has_work = has[s] != 0 && ((mask[s] >> o->in_sink(i)) & 1u) == 0;
    }
    if (!has_work) return kClsIdle;
    for (int i = 0; i < kMaxIn; ++i) {
      if (o->in_bound(i) && !in_ready_post(o, i)) return kClsStallIn;
    }
    for (int j = 0; j < kMaxOut; ++j) {
      const Net* n = o->out_net(j);
      if (n != nullptr && has[slot_of.at(n)] != 0) return kClsStallOut;
    }
    return kClsIdle;
  }

  bool closure() const {
    if (has != has_entry || mask != mask_entry) return false;
    for (std::size_t k = 0; k < pr.fifos_.size(); ++k) {
      if (fifo_sz.at(pr.fifos_[k]) != pr.fifo_entry_[k]) return false;
    }
    for (std::size_t k = 0; k < pr.merges_.size(); ++k) {
      if (tog.at(pr.merges_[k]) != (pr.merge_entry_[k] != 0)) return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// CompiledProgram
// ---------------------------------------------------------------------------

CompiledProgram::~CompiledProgram() = default;

std::unique_ptr<CompiledProgram> CompiledProgram::build(
    Simulator& sim, const std::vector<const CycleRecord*>& period) {
  if (period.empty()) return nullptr;
  std::unique_ptr<CompiledProgram> prog(new CompiledProgram());
  prog->period_ = static_cast<int>(period.size());
  Builder b(sim, *prog);
  if (!b.enumerate() || !b.prepass(period)) return nullptr;
  for (const CycleRecord* r : period) {
    if (!b.lower_phase(*r)) return nullptr;
  }
  if (!b.closure()) return nullptr;
  prog->records_.reserve(period.size());
  for (const CycleRecord* r : period) prog->records_.push_back(*r);
  return prog;
}

bool CompiledProgram::phase_matches(const Simulator& sim, int k) const {
  (void)sim;  // phase-start state lives behind the captured pointers
  const std::size_t row =
      static_cast<std::size_t>(k) * static_cast<std::size_t>(n_nets_);
  for (int i = 0; i < n_nets_; ++i) {
    const Net* n = nets_[static_cast<std::size_t>(i)];
    if (n->staged_.has_value()) return false;
    if ((n->has_value_ ? 1 : 0) != phase_has_[row + static_cast<std::size_t>(i)]) {
      return false;
    }
    if (n->consumed_mask_ != phase_mask_[row + static_cast<std::size_t>(i)]) {
      return false;
    }
  }
  const std::size_t frow = static_cast<std::size_t>(k) * fifos_.size();
  for (std::size_t f = 0; f < fifos_.size(); ++f) {
    if (fifos_[f]->fifo_size() != fifo_phase_[frow + f]) return false;
  }
  const std::size_t mrow = static_cast<std::size_t>(k) * merges_.size();
  for (std::size_t m = 0; m < merges_.size(); ++m) {
    if (merges_[m]->merge_toggle_ != (merge_phase_[mrow + m] != 0)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < nonfiring_inputs_.size(); ++i) {
    if (nonfiring_inputs_[i]->queue_.empty() != (nonfiring_empty_[i] != 0)) {
      return false;
    }
  }
  for (const InputObject* in : req_nonempty_inputs_) {
    if (in->queue_.empty()) return false;
  }
  return true;
}

bool CompiledProgram::guards_pass_live(int k) const {
  const std::int32_t gb =
      k == 0 ? 0 : guard_end_[static_cast<std::size_t>(k) - 1];
  for (std::int32_t gi = gb; gi < guard_end_[static_cast<std::size_t>(k)];
       ++gi) {
    const Guard& g = guards_[static_cast<std::size_t>(gi)];
    if (g.kind == Guard::Kind::kInputNonEmpty) {
      if (g.input->queue_.empty()) return false;
      continue;
    }
    // Value guards always reference a slot that is live (committed) at
    // the guarded phase's entry, so the net's value is authoritative;
    // const slots can't occur today but read from const_values_ anyway.
    const Word v = g.slot < n_nets_
                       ? nets_[static_cast<std::size_t>(g.slot)]->value_
                       : const_values_[static_cast<std::size_t>(
                             g.slot - n_nets_)];
    if ((v != 0) != g.expect) return false;
  }
  return true;
}

bool CompiledProgram::arm(Simulator& sim, int entry) {
  Tracer* tr = sim.tracer_;
  if (tr != nullptr) {
    // Resolve counter-store pointers up front (paused tracers too: a
    // mid-epoch resume must keep collecting).  A missing entry means
    // the tracer never registered this group — refuse, untouched.
    tpae_.resize(objs_.size());
    trow_.resize(objs_.size());
    tnete_.resize(nets_.size());
    for (std::size_t m = 0; m < objs_.size(); ++m) {
      const auto it = tr->objs_.find(objs_[m]);
      if (it == tr->objs_.end()) return false;
      tpae_[m] = &it->second;
      trow_[m] = static_cast<std::int16_t>(it->second.row);
    }
    for (std::size_t i = 0; i < nets_.size(); ++i) {
      const auto it = tr->nets_.find(nets_[i]);
      if (it == tr->nets_.end()) return false;
      tnete_[i] = &it->second;
    }
  }
  const std::size_t slots =
      static_cast<std::size_t>(n_nets_) + const_values_.size();
  value_.resize(slots);
  staged_.assign(slots, 0);
  for (int i = 0; i < n_nets_; ++i) {
    value_[static_cast<std::size_t>(i)] = nets_[static_cast<std::size_t>(i)]->value_;
  }
  for (std::size_t k = 0; k < const_values_.size(); ++k) {
    value_[static_cast<std::size_t>(n_nets_) + k] = const_values_[k];
  }
  latch_accum_.assign(static_cast<std::size_t>(n_nets_), 0);
  // Value packing is phase-independent: every slot the program reads
  // from phase `entry` onward is either live now (committed value just
  // copied) or re-latched before its first read — the symbolic
  // readiness rules make a stale read impossible at any verified
  // phase boundary.
  pos_ = entry;
  // The worklists are re-derived at unpack; clear them so stale queued
  // flags cannot leak across the epoch.
  for (Object* o : sim.ready_) o->set_sched_queued(false);
  for (Object* o : sim.next_ready_) o->set_sched_queued(false);
  sim.ready_.clear();
  sim.next_ready_.clear();
  for (Net* n : sim.dirty_nets_) n->clear_dirty();
  sim.dirty_nets_.clear();
  return true;
}

int CompiledProgram::exec_phase(Simulator& sim) {
  const int p = pos_;
  const std::int32_t gb = p == 0 ? 0 : guard_end_[static_cast<std::size_t>(p) - 1];
  for (std::int32_t gi = gb; gi < guard_end_[static_cast<std::size_t>(p)]; ++gi) {
    const Guard& g = guards_[static_cast<std::size_t>(gi)];
    const bool ok = g.kind == Guard::Kind::kValueTruth
                        ? (value_[static_cast<std::size_t>(g.slot)] != 0) ==
                              g.expect
                        : !g.input->queue_.empty();
    if (!ok) {
      unpack(sim);
      return -1;
    }
  }

  const long long cyc = sim.cycle_;
  Word* val = value_.data();
  Word* stg = staged_.data();
  const std::int32_t ob = p == 0 ? 0 : op_end_[static_cast<std::size_t>(p) - 1];
  const std::int32_t oe = op_end_[static_cast<std::size_t>(p)];
  for (std::int32_t k = ob; k < oe; ++k) {
    const Op& op = ops_[static_cast<std::size_t>(k)];
    switch (op.kind) {
      case CKind::kAlu: {
        const Word a = op.a >= 0 ? val[op.a] : 0;
        const Word b = op.b >= 0 ? val[op.b] : 0;
        const Word c = op.c >= 0 ? val[op.c] : 0;
        const alu::Result r = alu::eval(
            op.op, a, b, c,
            {(op.flags & kFlagSaturate) != 0, op.shift,
             static_cast<AluObject*>(op.obj)->p_.table.data()});
        if (op.o0 >= 0) stg[op.o0] = r.r0;
        if (op.o1 >= 0) stg[op.o1] = r.r1;
        break;
      }
      case CKind::kCopy:
        stg[op.o0] = val[op.a];
        break;
      case CKind::kDrop:
        break;
      case CKind::kMergeAltCopy: {
        auto* al = static_cast<AluObject*>(op.obj);
        stg[op.o0] = val[op.a];
        al->merge_toggle_ = !al->merge_toggle_;
        break;
      }
      case CKind::kAccum: {
        auto* al = static_cast<AluObject*>(op.obj);
        const bool sat = (op.flags & kFlagSaturate) != 0;
        al->acc_ = alu::accum_add(al->acc_, val[op.a], sat);
        if ((op.flags & kFlagDump) != 0) {
          stg[op.o0] = alu::accum_dump(al->acc_, op.shift, sat);
          al->acc_ = 0;
        }
        break;
      }
      case CKind::kCAccum: {
        auto* al = static_cast<AluObject*>(op.obj);
        alu::caccum_add(al->cacc_re_, al->cacc_im_, val[op.a]);
        if ((op.flags & kFlagDump) != 0) {
          stg[op.o0] = alu::caccum_dump(al->cacc_re_, al->cacc_im_, op.shift);
          al->cacc_re_ = 0;
          al->cacc_im_ = 0;
        }
        break;
      }
      case CKind::kCounter: {
        auto* cn = static_cast<CounterObject*>(op.obj);
        stg[op.o0] = cn->value_;
        stg[op.o1] = alu::counter_step(cn->value_, cn->remaining_,
                                       cn->p_.start, cn->p_.step,
                                       cn->p_.modulo);
        break;
      }
      case CKind::kRam: {
        auto* rm = static_cast<RamObject*>(op.obj);
        const auto cap = static_cast<std::uint32_t>(rm->p_.capacity);
        if ((op.flags & kFlagRead) != 0) {
          stg[op.o0] = rm->mem_[static_cast<std::uint32_t>(val[op.a]) % cap];
        }
        if ((op.flags & kFlagWrite) != 0) {
          rm->mem_[static_cast<std::uint32_t>(val[op.b]) % cap] = val[op.c];
        }
        break;
      }
      case CKind::kFifo: {
        auto* rm = static_cast<RamObject*>(op.obj);
        if ((op.flags & kFlagRead) != 0) rm->fifo_.push_back(val[op.a]);
        if ((op.flags & kFlagWrite) != 0) {
          stg[op.o0] = rm->fifo_.front();
          rm->fifo_.pop_front();
        }
        break;
      }
      case CKind::kLut: {
        auto* rm = static_cast<RamObject*>(op.obj);
        stg[op.o0] = rm->p_.preload[static_cast<std::uint32_t>(val[op.a]) %
                                    rm->p_.preload.size()];
        break;
      }
      case CKind::kCircLut: {
        auto* rm = static_cast<RamObject*>(op.obj);
        stg[op.o0] = rm->p_.preload[rm->replay_pos_];
        rm->replay_pos_ = (rm->replay_pos_ + 1) % rm->p_.preload.size();
        break;
      }
      case CKind::kInput: {
        auto* in = static_cast<InputObject*>(op.obj);
        stg[op.o0] = in->queue_.front();
        in->queue_.pop_front();
        break;
      }
      case CKind::kOutput:
        static_cast<OutputObject*>(op.obj)->data_.push_back(val[op.a]);
        break;
    }
    op.obj->fired_cycle_ = cyc;
    ++op.obj->fire_count_;
  }

  const std::int32_t lb = p == 0 ? 0 : latch_end_[static_cast<std::size_t>(p) - 1];
  for (std::int32_t li = lb; li < latch_end_[static_cast<std::size_t>(p)]; ++li) {
    const std::int32_t s = latch_slots_[static_cast<std::size_t>(li)];
    val[s] = stg[s];
    ++latch_accum_[static_cast<std::size_t>(s)];
  }

  if (sim.tracer_ != nullptr && sim.tracer_->tracing()) {
    apply_trace_phase(sim, p, cyc + 1);
  }
  sim.cycle_ = cyc + 1;
  sim.total_fires_ += oe - ob;
  pos_ = p + 1 == period_ ? 0 : p + 1;
  return oe - ob;
}

void CompiledProgram::apply_trace_phase(Simulator& sim, int phase,
                                        long long cycle_after) {
  Tracer& tr = *sim.tracer_;
  const std::uint8_t* cls =
      &tobj_cls_[static_cast<std::size_t>(phase) *
                 static_cast<std::size_t>(n_objs_)];
  for (int m = 0; m < n_objs_; ++m) {
    PaeCounters& c = *tpae_[static_cast<std::size_t>(m)];
    ++c.traced_cycles;
    switch (cls[m]) {
      case kClsFired:
        // object_fired + on_cycle, fused.
        ++c.fires;
        ++tr.interval_row_fires_[trow_[static_cast<std::size_t>(m)]];
        break;
      case kClsStallIn:
        ++c.stall_in_cycles;
        break;
      case kClsStallOut:
        ++c.stall_out_cycles;
        break;
      default:
        ++c.idle_cycles;
        break;
    }
  }
  const std::uint8_t* nb =
      &tnet_bits_[static_cast<std::size_t>(phase) *
                  static_cast<std::size_t>(n_nets_)];
  for (int i = 0; i < n_nets_; ++i) {
    Tracer::NetEntry& e = *tnete_[static_cast<std::size_t>(i)];
    ++e.c.traced_cycles;
    const bool latched = (nb[i] & kNetLatched) != 0;
    if (latched) {
      ++e.c.tokens;
      ++e.last_generation;  // mirrors the per-phase generation bump
    }
    if ((nb[i] & kNetOccupied) != 0) {
      ++e.c.occupied_cycles;
      if (!latched) ++e.c.backpressure_cycles;
    }
  }
  tr.last_cycle_ = cycle_after;
  if (++tr.interval_cycles_ >= tr.opts_.sample_interval) {
    tr.flush_interval(cycle_after);
  }
}

void CompiledProgram::unpack(Simulator& sim) {
  const std::size_t row =
      static_cast<std::size_t>(pos_) * static_cast<std::size_t>(n_nets_);
  for (int i = 0; i < n_nets_; ++i) {
    Net* n = nets_[static_cast<std::size_t>(i)];
    n->value_ = value_[static_cast<std::size_t>(i)];
    n->has_value_ = phase_has_[row + static_cast<std::size_t>(i)] != 0;
    n->consumed_mask_ = phase_mask_[row + static_cast<std::size_t>(i)];
    n->staged_.reset();
    n->generation_ +=
        static_cast<std::uint64_t>(latch_accum_[static_cast<std::size_t>(i)]);
    n->dirty_ = false;
    latch_accum_[static_cast<std::size_t>(i)] = 0;
  }
  // Reseed the event scheduler conservatively: every object gets one
  // readiness check next cycle; the fixed point is unaffected by the
  // superset seeding.
  for (Object* o : sim.ready_) o->set_sched_queued(false);
  for (Object* o : sim.next_ready_) o->set_sched_queued(false);
  sim.ready_.clear();
  sim.next_ready_.clear();
  sim.dirty_nets_.clear();
  for (Object* o : objs_) o->set_sched_queued(false);
  for (Object* o : objs_) sim.enqueue_next(o);
}

// ---------------------------------------------------------------------------
// CompiledEngine
// ---------------------------------------------------------------------------

CompiledEngine::CompiledEngine(Simulator& sim)
    : sim_(sim), ring_(2 * kMaxCompiledPeriod) {
  cur_ = &ring_[0];
}

void CompiledEngine::end_cycle() {
  cur_->hash = hash_cycle_events(cur_->evs);
  ++stats_.recorded_cycles;
  if (cooldown_ > 0) --cooldown_;

  // Fast re-arm: if the cycle just interpreted is exactly a cached
  // program's final phase and the boundary state equals its entry
  // state, resume replay immediately instead of waiting out a full
  // re-detection window.  This is the common rhythm after a control
  // value (accumulator dump, steering flip) guard-deopts a short
  // program: a few interpreted ripple cycles, then the steady state
  // returns.  Guards keep it sound — a wrong re-arm deopts at phase 0
  // before any mutation.
  // ... suppressed while a period upgrade is pending: re-arming the
  // short program every few cycles would starve the detector of the
  // 2x-longer window the upgrade compile needs.
  bool upgrade_pending = false;
  if (preferred_period_ > 0) {
    upgrade_pending = true;
    for (const auto& pr : cache_) {
      if (pr->period() == preferred_period_) {
        upgrade_pending = false;
        break;
      }
    }
  }
  if (!upgrade_pending && !cache_.empty() &&
      (sim_.injector_ == nullptr || !sim_.injector_->armed())) {
    for (std::size_t i = 0; i < cache_.size(); ++i) {
      CompiledProgram* pr = cache_[i].get();
      // The interpreted cycle may match *any* phase of the resident
      // program, not just the final one: a single-lane guard deopt
      // (batched replay) or a dump-boundary deopt can land mid-period.
      // Check the final phase first — the legacy common case, and the
      // unambiguous one when several phases are structurally identical
      // (arming at any matching phase is sound regardless: the guards
      // pin every value decision, so a mis-phased arm deopts at the
      // next boundary before any mutation).
      const int np = pr->period();
      const auto& recs = pr->records();
      int entry = -1;
      for (int off = 0; off < np; ++off) {
        const int k = (np - 1 + off) % np;  // np-1, 0, 1, ..., np-2
        const std::size_t ks = static_cast<std::size_t>(k);
        if (recs[ks].hash != cur_->hash) continue;
        if (recs[ks].evs != cur_->evs) continue;
        const int e = (k + 1) % np;
        if (!pr->phase_matches(sim_, e)) continue;
        // Live-guard prescreen: discriminates between structurally
        // identical phases whose control values differ (e.g. the
        // despreader's wrap flag) and avoids arm/deopt thrash.
        if (!pr->guards_pass_live(e)) continue;
        entry = e;
        break;
      }
      if (entry < 0) continue;
      if (!pr->arm(sim_, entry)) break;
      armed_ = pr;
      publish(*pr);
      ++stats_.arms;
      ++stats_.rearms;
      if (entry != 0) ++stats_.phase_rearms;
      if (fleet_mode_) {
        // An adopted program went live without the detector ever
        // running; renew the probation allowance for the next deopt.
        ++stats_.fleet_arms;
        fleet_probation_ = kFleetProbation;
      }
      if (i != 0) {
        std::rotate(cache_.begin(),
                    cache_.begin() + static_cast<std::ptrdiff_t>(i),
                    cache_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      }
      reset_detector();
      return;
    }
  }

  // Fleet admission: while adopted programs are resident, arms come
  // exclusively from the fast re-arm scan above and the periodicity
  // detector stays off — that is the "skip steady-state detection"
  // contract.  Fall back to normal detection (per-instance compile +
  // publish) when nothing armed for a whole probation window, or when
  // a guard-deopt rhythm requested a period upgrade that no adopted
  // program satisfies (only the detector can compile the longer
  // period).
  if (fleet_mode_) {
    if (upgrade_pending || --fleet_probation_ <= 0) {
      fleet_mode_ = false;
      fleet_probation_ = 0;
      reset_detector();
      return;
    }
    cur_->evs.clear();
    return;
  }

  const long long c = t_;

  long long prev = -1;
  const auto [it, inserted] = last_seen_.try_emplace(cur_->hash, c);
  if (!inserted) {
    prev = it->second;
    it->second = c;
  }
  if (last_seen_.size() > 8192) {  // aperiodic churn: bound the map
    last_seen_.clear();
    cand_p_ = 0;
    match_run_ = 0;
  } else if (prev >= 0) {
    const long long p = c - prev;
    if (p > 0 && p <= kMaxCompiledPeriod) {
      if (static_cast<int>(p) == cand_p_) {
        ++match_run_;
      } else {
        cand_p_ = static_cast<int>(p);
        match_run_ = 1;
      }
    } else {
      cand_p_ = 0;
      match_run_ = 0;
    }
  } else {
    cand_p_ = 0;
    match_run_ = 0;
  }

  if (cand_p_ > 0 &&
      match_run_ >= static_cast<long long>(kCompiledRepeats - 1) * cand_p_ &&
      c + 1 >= 2LL * cand_p_) {
    // Must run before the ring advances: with p == kMaxCompiledPeriod
    // the slot about to be cleared aliases into the compare window.
    try_arm(cand_p_);
    if (armed_ != nullptr) return;  // detector already repositioned
  }
  t_ = c + 1;
  cur_ = &rec(t_);
  cur_->evs.clear();
}

void CompiledEngine::try_arm(int p) {
  if (sim_.injector_ != nullptr && sim_.injector_->armed()) return;
  // Pending period upgrade: hold out for a double window of the
  // preferred (value) period instead of re-arming the structural
  // sub-period.  Abandoned if the stream stops looking periodic at
  // that length.
  const int pp = preferred_period_;
  if (pp > p && pp % p == 0 && pp <= kMaxCompiledPeriod) {
    if (t_ + 1 < 2LL * pp) return;  // window not deep enough yet
    bool ok = true;
    for (int k = 0; k < pp && ok; ++k) {
      ok = rec(t_ - pp + 1 + k).evs == rec(t_ - 2 * pp + 1 + k).evs;
    }
    if (ok) {
      p = pp;
    } else {
      if (t_ + 1 >= 4LL * pp) preferred_period_ = 0;  // not pp-periodic
      return;
    }
  }
  // Hashes matched; require exact structural equality of the last two
  // periods before spending a compile.
  for (int k = 0; k < p; ++k) {
    if (!(rec(t_ - p + 1 + k).evs == rec(t_ - 2 * p + 1 + k).evs)) return;
  }
  std::vector<const CycleRecord*> period(static_cast<std::size_t>(p));
  for (int k = 0; k < p; ++k) {
    period[static_cast<std::size_t>(k)] = &rec(t_ - p + 1 + k);
  }

  for (std::size_t i = 0; i < cache_.size(); ++i) {
    CompiledProgram* pr = cache_[i].get();
    if (pr->period() != p) continue;
    bool same = true;
    for (int k = 0; k < p && same; ++k) {
      same = pr->records()[static_cast<std::size_t>(k)].evs ==
             period[static_cast<std::size_t>(k)]->evs;
    }
    if (!same || !pr->entry_matches(sim_)) continue;
    if (!pr->arm(sim_)) return;
    armed_ = pr;
    publish(*pr);
    ++stats_.arms;
    ++stats_.rearms;
    if (i != 0) {
      std::rotate(cache_.begin(),
                  cache_.begin() + static_cast<std::ptrdiff_t>(i),
                  cache_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    }
    reset_detector();
    return;
  }

  if (cooldown_ > 0) return;  // recently refused an equivalent candidate

  // Before compiling from scratch, try the cross-simulator cache: an
  // identical terminal may have already compiled this steady state.
  // Behind the cooldown gate on purpose: computing the canonical
  // window signature walks the whole object graph, so it must be paid
  // at compile frequency, not per periodicity candidate.
  if (shared_cache_ != nullptr && try_bind_shared(period)) return;
  std::unique_ptr<CompiledProgram> built = CompiledProgram::build(sim_, period);
  if (built == nullptr) {
    ++stats_.compile_refusals;
    cooldown_ = 4LL * p;
    // A failed upgrade must not keep suppressing the sub-period
    // program; a fresh deopt rhythm will re-request it.
    if (p == preferred_period_) preferred_period_ = 0;
    return;
  }
  ++stats_.compiles;
  if (!built->arm(sim_)) {
    cooldown_ = 4LL * p;
    if (p == preferred_period_) preferred_period_ = 0;
    return;
  }
  armed_ = built.get();
  publish(*built);
  cache_.insert(cache_.begin(), std::move(built));
  if (cache_.size() > kCompiledCacheSize) cache_.pop_back();
  ++stats_.arms;
  reset_detector();
}

void CompiledEngine::set_shared_cache(BatchProgramCache* cache,
                                      std::uint32_t config_crc) {
  shared_cache_ = cache;
  shared_crc_ = config_crc;
  if (cache != nullptr && armed_ != nullptr) publish(*armed_);
}

int CompiledEngine::exec_one() {
  const int fires = armed_->exec_phase(sim_);
  if (fires < 0) {
    // Guard deopt: if this same program last guard-deopted exactly a
    // multiple of its period ago, its period is a structural
    // sub-period of the true value period — schedule an upgrade.
    const long long cyc = sim_.cycle();
    if (armed_ == last_guard_deopt_prog_ && last_guard_deopt_cycle_ >= 0) {
      const long long d = cyc - last_guard_deopt_cycle_;
      const int p = armed_->period();
      if (d > p && d <= kMaxCompiledPeriod && d % p == 0) {
        preferred_period_ = static_cast<int>(d);
      }
    }
    last_guard_deopt_prog_ = armed_;
    last_guard_deopt_cycle_ = cyc;
    armed_ = nullptr;
    ++stats_.deopts;
    return -1;
  }
  ++stats_.replayed_cycles;
  return fires;
}

long long CompiledEngine::replay(long long max_cycles) {
  long long done = 0;
  while (done < max_cycles && armed_ != nullptr) {
    if (sim_.injector_ != nullptr && sim_.injector_->armed()) {
      deoptimize();
      break;
    }
    if (exec_one() < 0) break;
    ++done;
  }
  return done;
}

void CompiledEngine::deoptimize() {
  if (armed_ == nullptr) return;
  armed_->unpack(sim_);
  armed_ = nullptr;
  ++stats_.deopts;
}

void CompiledEngine::invalidate() {
  deoptimize();
  cache_.clear();
  shape_memo_.reset();
  reset_detector();
  cooldown_ = 0;
  last_guard_deopt_prog_ = nullptr;
  last_guard_deopt_cycle_ = -1;
  preferred_period_ = 0;
  // Adopted programs died with the cache; a reconfigured session must
  // re-adopt against its new object graph before skipping detection.
  fleet_mode_ = false;
  fleet_probation_ = 0;
}

void CompiledEngine::reset_detector() {
  t_ = 0;
  last_seen_.clear();
  cand_p_ = 0;
  match_run_ = 0;
  cur_ = &ring_[0];
  cur_->evs.clear();
}

}  // namespace rsp::xpp
