#include "src/xpp/snapshot.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <utility>

#include "src/xpp/builder.hpp"
#include "src/xpp/compiled.hpp"
#include "src/xpp/fault.hpp"

namespace rsp::xpp {

namespace snap {

namespace {

/// Reflected CRC-32/IEEE lookup table, built once (same polynomial as
/// the bitwise dedhw::Crc engine behind config_crc32 — cross-checked in
/// tests/xpp/test_snapshot.cpp).
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

constexpr std::size_t kMagicLen = 8;
/// magic + version + payload length + payload CRC.
constexpr std::size_t kFrameHeader = kMagicLen + 4 + 8 + 4;

std::uint32_t read_le32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t read_le64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const auto& t = crc_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string frame(const char magic[8], std::uint32_t version,
                  const std::string& payload) {
  Writer h;
  std::string out(magic, kMagicLen);
  h.u32(version);
  h.u64(payload.size());
  h.u32(crc32(payload.data(), payload.size()));
  out += h.bytes();
  out += payload;
  return out;
}

std::string_view unframe(const char magic[8], std::uint32_t version,
                         std::string_view bytes) {
  if (bytes.size() < kFrameHeader) {
    throw SnapshotError("snapshot: file truncated (" +
                        std::to_string(bytes.size()) + " byte(s), header is " +
                        std::to_string(kFrameHeader) + ")");
  }
  if (bytes.compare(0, kMagicLen, std::string_view(magic, kMagicLen)) != 0) {
    throw SnapshotError("snapshot: bad magic (expected '" +
                        std::string(magic, kMagicLen) + "', got '" +
                        std::string(bytes.substr(0, kMagicLen)) + "')");
  }
  const std::uint32_t got_version = read_le32(bytes.data() + kMagicLen);
  if (got_version != version) {
    throw SnapshotError("snapshot: unsupported version " +
                        std::to_string(got_version) + " (this build reads " +
                        std::to_string(version) + ")");
  }
  const std::uint64_t len = read_le64(bytes.data() + kMagicLen + 4);
  const std::uint32_t want_crc = read_le32(bytes.data() + kMagicLen + 12);
  if (len != bytes.size() - kFrameHeader) {
    throw SnapshotError("snapshot: payload length mismatch (header says " +
                        std::to_string(len) + ", file carries " +
                        std::to_string(bytes.size() - kFrameHeader) + ")");
  }
  const std::string_view payload = bytes.substr(kFrameHeader);
  const std::uint32_t got_crc = crc32(payload.data(), payload.size());
  if (got_crc != want_crc) {
    throw SnapshotError("snapshot: payload CRC mismatch (stored " +
                        std::to_string(want_crc) + ", computed " +
                        std::to_string(got_crc) + ") — file corrupted");
  }
  return payload;
}

void write_file_atomic(const std::string& path, const std::string& bytes) {
  // pid + process-wide counter: concurrent writers of one path, in any
  // process, never truncate or rename each other's staging file.
  static std::atomic<unsigned long long> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw SnapshotError("snapshot: cannot open '" + tmp + "' for writing");
  }
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (wrote != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("snapshot: cannot rename '" + tmp + "' to '" + path +
                        "'");
  }
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapshotError("snapshot: cannot open '" + path + "' for reading");
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw SnapshotError("snapshot: read error on '" + path + "'");
  return bytes;
}

}  // namespace snap

namespace {

constexpr char kSnapshotMagic[8] = {'R', 'S', 'P', 'S', 'N', 'A', 'P', '1'};

// ---------------------------------------------------------------------------
// Configuration value (de)serialization.  The field order mirrors the
// canonical serialization config_crc32 hashes (builder.cpp) so the two
// descriptions of "what a configuration is" cannot drift silently —
// restore re-verifies the stored checksum with config_crc32 after
// parsing.
// ---------------------------------------------------------------------------

void put_word(snap::Writer& w, Word v) {
  w.u32(static_cast<std::uint32_t>(v));
}

Word get_word(snap::Reader& r) { return static_cast<Word>(r.u32()); }

void put_config(snap::Writer& w, const Configuration& cfg) {
  w.str(cfg.name);
  w.u32(static_cast<std::uint32_t>(cfg.objects.size()));
  for (const auto& o : cfg.objects) {
    w.str(o.name);
    w.u8(static_cast<std::uint8_t>(o.kind));
    w.u8(static_cast<std::uint8_t>(o.alu.op));
    w.u32(static_cast<std::uint32_t>(o.alu.shift));
    w.b(o.alu.saturate);
    for (const Word t : o.alu.table) put_word(w, t);
    put_word(w, o.counter.start);
    put_word(w, o.counter.step);
    put_word(w, o.counter.modulo);
    w.u8(static_cast<std::uint8_t>(o.ram.mode));
    w.u32(static_cast<std::uint32_t>(o.ram.capacity));
    w.u32(static_cast<std::uint32_t>(o.ram.preload.size()));
    for (const Word v : o.ram.preload) put_word(w, v);
    w.b(o.placement.has_value());
    if (o.placement) {
      w.u32(static_cast<std::uint32_t>(o.placement->row));
      w.u32(static_cast<std::uint32_t>(o.placement->col));
    }
    w.b(o.control);
    w.u32(static_cast<std::uint32_t>(o.consts.size()));
    for (const auto& [port, value] : o.consts) {
      w.u32(static_cast<std::uint32_t>(port));
      put_word(w, value);
    }
  }
  w.u32(static_cast<std::uint32_t>(cfg.connections.size()));
  for (const auto& c : cfg.connections) {
    w.u32(static_cast<std::uint32_t>(c.src.object));
    w.u32(static_cast<std::uint32_t>(c.src.port));
    w.u32(static_cast<std::uint32_t>(c.dst.object));
    w.u32(static_cast<std::uint32_t>(c.dst.port));
    w.b(c.preload.has_value());
    if (c.preload) put_word(w, *c.preload);
  }
  w.b(cfg.checksum.has_value());
  if (cfg.checksum) w.u32(*cfg.checksum);
}

Configuration get_config(snap::Reader& r) {
  Configuration cfg;
  cfg.name = r.str();
  const std::uint32_t n_obj = r.u32();
  cfg.objects.reserve(n_obj);
  for (std::uint32_t i = 0; i < n_obj; ++i) {
    ObjectSpec o;
    o.name = r.str();
    o.kind = static_cast<ObjectKind>(r.u8());
    o.alu.op = static_cast<Opcode>(r.u8());
    o.alu.shift = static_cast<int>(r.u32());
    o.alu.saturate = r.b();
    for (Word& t : o.alu.table) t = get_word(r);
    o.counter.start = get_word(r);
    o.counter.step = get_word(r);
    o.counter.modulo = get_word(r);
    o.ram.mode = static_cast<RamMode>(r.u8());
    o.ram.capacity = static_cast<int>(r.u32());
    const std::uint32_t n_pre = r.u32();
    o.ram.preload.reserve(n_pre);
    for (std::uint32_t k = 0; k < n_pre; ++k) o.ram.preload.push_back(get_word(r));
    if (r.b()) {
      Coord at;
      at.row = static_cast<int>(r.u32());
      at.col = static_cast<int>(r.u32());
      o.placement = at;
    }
    o.control = r.b();
    const std::uint32_t n_const = r.u32();
    o.consts.reserve(n_const);
    for (std::uint32_t k = 0; k < n_const; ++k) {
      const int port = static_cast<int>(r.u32());
      o.consts.emplace_back(port, get_word(r));
    }
    cfg.objects.push_back(std::move(o));
  }
  const std::uint32_t n_conn = r.u32();
  cfg.connections.reserve(n_conn);
  for (std::uint32_t i = 0; i < n_conn; ++i) {
    ConnSpec c;
    c.src.object = static_cast<int>(r.u32());
    c.src.port = static_cast<int>(r.u32());
    c.dst.object = static_cast<int>(r.u32());
    c.dst.port = static_cast<int>(r.u32());
    if (r.b()) c.preload = get_word(r);
    cfg.connections.push_back(c);
  }
  if (r.b()) cfg.checksum = r.u32();
  return cfg;
}

void put_geometry(snap::Writer& w, const ArrayGeometry& g) {
  w.u32(static_cast<std::uint32_t>(g.rows));
  w.u32(static_cast<std::uint32_t>(g.alu_cols));
  w.u32(static_cast<std::uint32_t>(g.io_channels));
  w.u32(static_cast<std::uint32_t>(g.h_tracks_per_cell));
  w.u32(static_cast<std::uint32_t>(g.v_tracks_per_cell));
}

ArrayGeometry get_geometry(snap::Reader& r) {
  ArrayGeometry g;
  g.rows = static_cast<int>(r.u32());
  g.alu_cols = static_cast<int>(r.u32());
  g.io_channels = static_cast<int>(r.u32());
  g.h_tracks_per_cell = static_cast<int>(r.u32());
  g.v_tracks_per_cell = static_cast<int>(r.u32());
  return g;
}

bool same_geometry(const ArrayGeometry& a, const ArrayGeometry& b) {
  return a.rows == b.rows && a.alu_cols == b.alu_cols &&
         a.io_channels == b.io_channels &&
         a.h_tracks_per_cell == b.h_tracks_per_cell &&
         a.v_tracks_per_cell == b.v_tracks_per_cell;
}

void put_rng(snap::Writer& w, const Rng::State& st) {
  for (const std::uint64_t s : st.s) w.u64(s);
  w.b(st.have_spare);
  w.f64(st.spare);
}

Rng::State get_rng(snap::Reader& r) {
  Rng::State st;
  for (std::uint64_t& s : st.s) s = r.u64();
  st.have_spare = r.b();
  st.spare = r.f64();
  return st;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotAccess: the single friend through which save/restore reaches
// private state.  All methods are static; the class carries no state.
// ---------------------------------------------------------------------------

class SnapshotAccess {
 public:
  // -- per-object dynamic state ---------------------------------------------

  static void save_object(snap::Writer& w, const Object& o) {
    w.u8(static_cast<std::uint8_t>(o.kind_));
    w.i64(o.fired_cycle_);
    w.i64(o.fire_count_);
    switch (o.kind_) {
      case ObjectKind::kAlu: {
        const auto& a = static_cast<const AluObject&>(o);
        put_word(w, a.acc_);
        w.i64(a.cacc_re_);
        w.i64(a.cacc_im_);
        w.b(a.merge_toggle_);
        break;
      }
      case ObjectKind::kCounter: {
        const auto& c = static_cast<const CounterObject&>(o);
        put_word(w, c.value_);
        put_word(w, c.remaining_);
        break;
      }
      case ObjectKind::kRam: {
        const auto& m = static_cast<const RamObject&>(o);
        w.u32(static_cast<std::uint32_t>(m.mem_.size()));
        for (const Word v : m.mem_) put_word(w, v);
        w.u32(static_cast<std::uint32_t>(m.fifo_.size()));
        for (const Word v : m.fifo_) put_word(w, v);
        w.u64(m.replay_pos_);
        break;
      }
      case ObjectKind::kInput: {
        const auto& in = static_cast<const InputObject&>(o);
        w.u32(static_cast<std::uint32_t>(in.queue_.size()));
        for (const Word v : in.queue_) put_word(w, v);
        break;
      }
      case ObjectKind::kOutput: {
        const auto& out = static_cast<const OutputObject&>(o);
        w.u32(static_cast<std::uint32_t>(out.data_.size()));
        for (const Word v : out.data_) put_word(w, v);
        break;
      }
    }
  }

  static void restore_object(snap::Reader& r, Object& o) {
    const auto kind = static_cast<ObjectKind>(r.u8());
    if (kind != o.kind_) {
      throw SnapshotError("snapshot: object '" + o.name_ +
                          "' kind mismatch (payload says " +
                          object_kind_name(kind) + ", instantiated " +
                          object_kind_name(o.kind_) + ")");
    }
    o.fired_cycle_ = r.i64();
    o.fire_count_ = r.i64();
    switch (kind) {
      case ObjectKind::kAlu: {
        auto& a = static_cast<AluObject&>(o);
        a.acc_ = get_word(r);
        a.cacc_re_ = r.i64();
        a.cacc_im_ = r.i64();
        a.merge_toggle_ = r.b();
        break;
      }
      case ObjectKind::kCounter: {
        auto& c = static_cast<CounterObject&>(o);
        c.value_ = get_word(r);
        c.remaining_ = get_word(r);
        break;
      }
      case ObjectKind::kRam: {
        auto& m = static_cast<RamObject&>(o);
        const std::uint32_t n_mem = r.u32();
        m.mem_.assign(n_mem, 0);
        for (std::uint32_t i = 0; i < n_mem; ++i) m.mem_[i] = get_word(r);
        const std::uint32_t n_fifo = r.u32();
        m.fifo_.clear();
        for (std::uint32_t i = 0; i < n_fifo; ++i) m.fifo_.push_back(get_word(r));
        m.replay_pos_ = r.u64();
        break;
      }
      case ObjectKind::kInput: {
        auto& in = static_cast<InputObject&>(o);
        const std::uint32_t n = r.u32();
        in.queue_.clear();
        for (std::uint32_t i = 0; i < n; ++i) in.queue_.push_back(get_word(r));
        break;
      }
      case ObjectKind::kOutput: {
        auto& out = static_cast<OutputObject&>(o);
        const std::uint32_t n = r.u32();
        out.data_.assign(n, 0);
        for (std::uint32_t i = 0; i < n; ++i) out.data_[i] = get_word(r);
        break;
      }
    }
  }

  // -- per-net dynamic state ------------------------------------------------

  static void save_net(snap::Writer& w, const Net& n) {
    w.u32(static_cast<std::uint32_t>(n.num_sinks_));
    w.b(n.has_value_);
    put_word(w, n.value_);
    w.u32(n.consumed_mask_);
    w.b(n.staged_.has_value());
    put_word(w, n.staged_.value_or(0));
    w.u64(n.generation_);
  }

  static void restore_net(snap::Reader& r, Net& n) {
    const int sinks = static_cast<int>(r.u32());
    if (sinks != n.num_sinks_) {
      throw SnapshotError(
          "snapshot: net fan-out mismatch (payload says " +
          std::to_string(sinks) + " sink(s), instantiated " +
          std::to_string(n.num_sinks_) + ") — configuration drift");
    }
    n.has_value_ = r.b();
    n.value_ = get_word(r);
    n.consumed_mask_ = r.u32();
    const bool staged = r.b();
    const Word staged_v = get_word(r);
    if (staged) {
      n.staged_ = staged_v;
    } else {
      n.staged_.reset();
    }
    n.generation_ = r.u64();
  }

  // -- whole-manager save ---------------------------------------------------

  static void save(snap::Writer& w, const ConfigurationManager& mgr,
                   const FaultInjector* injector) {
    const Simulator& sim = mgr.sim_;
    if (sim.groups_.size() != mgr.loaded_.size()) {
      throw SnapshotError(
          "snapshot: simulator carries groups not loaded through the "
          "ConfigurationManager — only manager-loaded state is snapshottable");
    }
    if (!mgr.parked_.empty()) {
      throw SnapshotError(
          "snapshot: parked configurations present — a parked entry holds "
          "placement claims with no live array state; acquire or release "
          "the pool before saving");
    }

    put_geometry(w, mgr.resources_.geom_);
    w.u8(static_cast<std::uint8_t>(sim.kind_));
    w.i64(sim.cycle_);
    w.u32(static_cast<std::uint32_t>(mgr.loaded_.size()));
    w.b(injector != nullptr);

    // Per-configuration: the Configuration value, the bookkeeping, then
    // the dynamic state of every object and net of its group (group
    // content order is deterministic: instantiate_config order).
    for (const auto& [id, lc] : mgr.loaded_) {
      const auto cit = mgr.configs_.find(id);
      if (cit == mgr.configs_.end()) {
        throw SnapshotError("snapshot: no stored Configuration for id " +
                            std::to_string(id));
      }
      w.u32(static_cast<std::uint32_t>(id));
      put_config(w, cit->second);
      w.u32(static_cast<std::uint32_t>(lc.group));
      w.u32(static_cast<std::uint32_t>(lc.alu_cells));
      w.u32(static_cast<std::uint32_t>(lc.ram_cells));
      w.u32(static_cast<std::uint32_t>(lc.io_channels));
      w.u32(static_cast<std::uint32_t>(lc.routing_segments));
      w.i64(lc.load_cycles);
      w.i64(lc.loaded_at_cycle);

      const auto git = sim.groups_.find(lc.group);
      if (git == sim.groups_.end()) {
        throw SnapshotError("snapshot: loaded config " + std::to_string(id) +
                            " has no simulator group");
      }
      const Simulator::Group& g = git->second;
      w.u32(static_cast<std::uint32_t>(g.objects.size()));
      for (const auto& o : g.objects) save_object(w, *o);
      w.u32(static_cast<std::uint32_t>(g.nets.size()));
      for (const auto& n : g.nets) save_net(w, *n);
    }

    // Simulator / manager counters.
    w.i64(sim.total_fires_);
    w.u32(static_cast<std::uint32_t>(sim.next_id_));
    w.u32(static_cast<std::uint32_t>(mgr.next_id_));
    w.i64(mgr.total_config_cycles_);

    // ResourceMap raw occupancy (see the friend note in array.hpp).
    const ResourceMap& res = mgr.resources_;
    w.u32(static_cast<std::uint32_t>(res.cell_owner_.size()));
    for (const ConfigId c : res.cell_owner_) w.u32(static_cast<std::uint32_t>(c));
    w.u32(static_cast<std::uint32_t>(res.io_owner_.size()));
    for (const ConfigId c : res.io_owner_) w.u32(static_cast<std::uint32_t>(c));
    w.u32(static_cast<std::uint32_t>(res.h_used_.size()));
    for (const int v : res.h_used_) w.u32(static_cast<std::uint32_t>(v));
    w.u32(static_cast<std::uint32_t>(res.v_used_.size()));
    for (const int v : res.v_used_) w.u32(static_cast<std::uint32_t>(v));
    w.u32(static_cast<std::uint32_t>(res.peak_alu_));
    w.u32(static_cast<std::uint32_t>(res.peak_ram_));
    w.u32(static_cast<std::uint32_t>(res.segments_.size()));
    for (const auto& s : res.segments_) {
      w.u32(static_cast<std::uint32_t>(s.cell));
      w.b(s.horizontal);
      w.u32(static_cast<std::uint32_t>(s.owner));
    }

    if (injector != nullptr) save_injector(w, sim, *injector);
  }

  static void save_injector(snap::Writer& w, const Simulator& sim,
                            const FaultInjector& inj) {
    w.u32(static_cast<std::uint32_t>(inj.plan_.faults.size()));
    for (const Fault& f : inj.plan_.faults) {
      w.u8(static_cast<std::uint8_t>(f.kind));
      w.i64(f.cycle);
      w.str(f.object);
      w.u32(static_cast<std::uint32_t>(f.group));
      w.u32(static_cast<std::uint32_t>(f.port));
      w.u32(static_cast<std::uint32_t>(f.bit));
      w.i64(f.duration);
      w.u32(static_cast<std::uint32_t>(f.addr));
      put_word(w, f.mask);
    }
    w.f64(inj.plan_.seu.per_cycle_prob);
    w.u64(inj.plan_.seu.seed);
    w.i64(inj.plan_.seu.from);
    w.i64(inj.plan_.seu.to);
    w.u64(inj.next_fault_);
    // Stuck windows hold raw Object pointers: persist them as
    // (group id, object name) and re-resolve on restore.
    w.u32(static_cast<std::uint32_t>(inj.stuck_.size()));
    for (const auto& s : inj.stuck_) {
      int group = -1;
      std::string name;
      for (const auto& [gid, g] : sim.groups_) {
        for (const auto& o : g.objects) {
          if (o.get() == s.object) {
            group = gid;
            name = o->name();
            break;
          }
        }
        if (group >= 0) break;
      }
      if (group < 0) {
        throw SnapshotError(
            "snapshot: stuck-window target is not resident on the array");
      }
      w.u32(static_cast<std::uint32_t>(group));
      w.str(name);
      w.i64(s.until);
    }
    w.b(inj.wake_pending_);
    w.b(inj.armed_);
    put_rng(w, inj.rng_.state());
    w.u32(static_cast<std::uint32_t>(inj.log_.size()));
    for (const FaultEvent& ev : inj.log_) {
      w.i64(ev.cycle);
      w.u8(static_cast<std::uint8_t>(ev.kind));
      w.str(ev.target);
      w.u32(static_cast<std::uint32_t>(ev.detail));
      w.b(ev.hit);
    }
  }

  // -- whole-manager restore ------------------------------------------------

  static SnapshotInfo read_header(snap::Reader& r) {
    SnapshotInfo info;
    info.version = kSnapshotVersion;
    info.geometry = get_geometry(r);
    info.scheduler = static_cast<SchedulerKind>(r.u8());
    info.cycle = r.i64();
    info.configs = r.u32();
    info.has_fault_state = r.b();
    return info;
  }

  static void restore(ConfigurationManager& mgr, snap::Reader& r,
                      FaultInjector* injector) {
    const SnapshotInfo info = read_header(r);
    Simulator& sim = mgr.sim_;

    if (!same_geometry(info.geometry, mgr.resources_.geom_)) {
      throw SnapshotError(
          "snapshot: array geometry mismatch — construct the target manager "
          "with the snapshot's geometry (peek_snapshot)");
    }
    if (info.scheduler != sim.kind_) {
      throw SnapshotError(
          "snapshot: scheduler kind mismatch — construct the target manager "
          "with the snapshot's SchedulerKind (peek_snapshot)");
    }
    if (sim.cycle_ != 0 || !sim.groups_.empty() || !mgr.loaded_.empty()) {
      throw SnapshotError(
          "snapshot: restore target must be freshly constructed (cycle 0, "
          "nothing loaded)");
    }
    if (info.has_fault_state && injector == nullptr) {
      throw SnapshotError(
          "snapshot: payload carries fault-injector state; pass a "
          "FaultInjector to restore into");
    }

    for (std::uint32_t i = 0; i < info.configs; ++i) {
      const ConfigId id = static_cast<ConfigId>(r.u32());
      Configuration cfg = get_config(r);
      // The configuration's own canonical CRC guards against semantic
      // drift the frame CRC cannot see (a stale snapshot of a config
      // whose builder changed meaning).
      if (cfg.checksum) {
        const std::uint32_t got = config_crc32(cfg);
        if (got != *cfg.checksum) {
          throw SnapshotError("snapshot: config '" + cfg.name +
                              "' checksum mismatch after parse (stored " +
                              std::to_string(*cfg.checksum) + ", computed " +
                              std::to_string(got) + ")");
        }
      }
      LoadedConfig lc;
      lc.name = cfg.name;
      lc.group = static_cast<Simulator::GroupId>(r.u32());
      lc.alu_cells = static_cast<int>(r.u32());
      lc.ram_cells = static_cast<int>(r.u32());
      lc.io_channels = static_cast<int>(r.u32());
      lc.routing_segments = static_cast<int>(r.u32());
      lc.load_cycles = r.i64();
      lc.loaded_at_cycle = r.i64();

      std::vector<std::unique_ptr<Object>> objects;
      std::vector<std::unique_ptr<Net>> nets;
      detail::instantiate_config(cfg, objects, nets);

      const std::uint32_t n_obj = r.u32();
      if (n_obj != objects.size()) {
        throw SnapshotError("snapshot: config '" + cfg.name +
                            "' object count mismatch");
      }
      for (auto& o : objects) restore_object(r, *o);
      const std::uint32_t n_net = r.u32();
      if (n_net != nets.size()) {
        throw SnapshotError("snapshot: config '" + cfg.name +
                            "' net count mismatch");
      }
      for (auto& n : nets) restore_net(r, *n);

      install_group(sim, lc.group, std::move(objects), std::move(nets));
      mgr.loaded_.emplace(id, lc);
      mgr.configs_.emplace(id, std::move(cfg));
    }

    sim.cycle_ = info.cycle;
    sim.total_fires_ = r.i64();
    sim.next_id_ = static_cast<Simulator::GroupId>(r.u32());
    mgr.next_id_ = static_cast<ConfigId>(r.u32());
    mgr.total_config_cycles_ = r.i64();

    restore_resources(mgr.resources_, r);

    if (info.has_fault_state) restore_injector(sim, r, *injector);
    if (!r.done()) {
      throw SnapshotError("snapshot: " + std::to_string(r.remaining()) +
                          " trailing byte(s) after payload");
    }
    if (info.has_fault_state) sim.install_faults(injector);
  }

  /// Insert a restored group at its original GroupId, mirroring
  /// add_group (name index, scheduler attachment, full enqueue) — minus
  /// id allocation, minus the compiled-engine invalidate (the engine is
  /// fresh).  Enqueuing every object plus re-marking every
  /// commit-pending net dirty conservatively reseeds the event
  /// scheduler; see the restore contract in snapshot.hpp.
  static void install_group(Simulator& sim, Simulator::GroupId gid,
                            std::vector<std::unique_ptr<Object>> objects,
                            std::vector<std::unique_ptr<Net>> nets) {
    auto [it, inserted] = sim.groups_.emplace(
        gid, Simulator::Group{std::move(objects), std::move(nets), {}});
    if (!inserted) {
      throw SnapshotError("snapshot: duplicate group id " +
                          std::to_string(gid) + " in payload");
    }
    Simulator::Group& g = it->second;
    g.by_name.reserve(g.objects.size());
    for (auto& o : g.objects) {
      g.by_name.emplace(o->name(), o.get());
      if (sim.kind_ != SchedulerKind::kScan) {
        o->attach_scheduler(&sim);
        sim.enqueue_next(o.get());
      }
    }
    if (sim.kind_ != SchedulerKind::kScan) {
      for (auto& n : g.nets) {
        if (n->commit_pending() && n->mark_dirty()) {
          sim.dirty_nets_.push_back(n.get());
        }
      }
    }
    sim.group_cache_.clear();
    for (auto& [id, grp] : sim.groups_) {
      (void)id;
      sim.group_cache_.push_back(&grp);
    }
  }

  static void restore_resources(ResourceMap& res, snap::Reader& r) {
    const auto read_ids = [&r](std::vector<ConfigId>& v,
                               const char* what) {
      const std::uint32_t n = r.u32();
      if (n != v.size()) {
        throw SnapshotError(std::string("snapshot: ResourceMap ") + what +
                            " size mismatch");
      }
      for (auto& c : v) c = static_cast<ConfigId>(r.u32());
    };
    const auto read_ints = [&r](std::vector<int>& v, const char* what) {
      const std::uint32_t n = r.u32();
      if (n != v.size()) {
        throw SnapshotError(std::string("snapshot: ResourceMap ") + what +
                            " size mismatch");
      }
      for (auto& x : v) x = static_cast<int>(r.u32());
    };
    read_ids(res.cell_owner_, "cell_owner");
    read_ids(res.io_owner_, "io_owner");
    read_ints(res.h_used_, "h_used");
    read_ints(res.v_used_, "v_used");
    res.peak_alu_ = static_cast<int>(r.u32());
    res.peak_ram_ = static_cast<int>(r.u32());
    const std::uint32_t n_seg = r.u32();
    res.segments_.clear();
    res.segments_.reserve(n_seg);
    for (std::uint32_t i = 0; i < n_seg; ++i) {
      ResourceMap::Segment s;
      s.cell = static_cast<int>(r.u32());
      s.horizontal = r.b();
      s.owner = static_cast<ConfigId>(r.u32());
      res.segments_.push_back(s);
    }
  }

  static void restore_injector(Simulator& sim, snap::Reader& r,
                               FaultInjector& inj) {
    FaultPlan plan;
    const std::uint32_t n_faults = r.u32();
    plan.faults.reserve(n_faults);
    for (std::uint32_t i = 0; i < n_faults; ++i) {
      Fault f;
      f.kind = static_cast<FaultKind>(r.u8());
      f.cycle = r.i64();
      f.object = r.str();
      f.group = static_cast<int>(r.u32());
      f.port = static_cast<int>(r.u32());
      f.bit = static_cast<int>(r.u32());
      f.duration = r.i64();
      f.addr = static_cast<int>(r.u32());
      f.mask = get_word(r);
      plan.faults.push_back(std::move(f));
    }
    plan.seu.per_cycle_prob = r.f64();
    plan.seu.seed = r.u64();
    plan.seu.from = r.i64();
    plan.seu.to = r.i64();
    // The plan was saved post-sort; assign directly (install() would
    // re-sort stably, a no-op, but also clear the cursor and log).
    inj.plan_ = std::move(plan);
    inj.next_fault_ = r.u64();
    const std::uint32_t n_stuck = r.u32();
    inj.stuck_.clear();
    inj.stuck_.reserve(n_stuck);
    for (std::uint32_t i = 0; i < n_stuck; ++i) {
      const int group = static_cast<int>(r.u32());
      const std::string name = r.str();
      const long long until = r.i64();
      Object* o = sim.find(group, name);
      if (o == nullptr) {
        throw SnapshotError("snapshot: stuck-window target '" + name +
                            "' not found in restored group " +
                            std::to_string(group));
      }
      inj.stuck_.push_back({o, until});
    }
    inj.wake_pending_ = r.b();
    inj.armed_ = r.b();
    inj.rng_.set_state(get_rng(r));
    const std::uint32_t n_log = r.u32();
    inj.log_.clear();
    inj.log_.reserve(n_log);
    for (std::uint32_t i = 0; i < n_log; ++i) {
      FaultEvent ev;
      ev.cycle = r.i64();
      ev.kind = static_cast<FaultKind>(r.u8());
      ev.target = r.str();
      ev.detail = static_cast<int>(r.u32());
      ev.hit = r.b();
      inj.log_.push_back(std::move(ev));
    }
  }
};

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

std::string save_snapshot(const ConfigurationManager& mgr,
                          const FaultInjector* injector) {
  // Deoptimize any live epoch so the nets hold the authoritative state.
  // Logically const: deoptimization restores the exact interpreter
  // state replay maintained (same contract as Simulator::diagnose).
  if (CompiledEngine* eng = mgr.sim().compiled_engine()) eng->deoptimize();
  snap::Writer w;
  SnapshotAccess::save(w, mgr, injector);
  return snap::frame(kSnapshotMagic, kSnapshotVersion, w.bytes());
}

SnapshotInfo peek_snapshot(const std::string& bytes) {
  snap::Reader r(snap::unframe(kSnapshotMagic, kSnapshotVersion, bytes));
  return SnapshotAccess::read_header(r);
}

void restore_snapshot(ConfigurationManager& mgr, const std::string& bytes,
                      FaultInjector* injector) {
  snap::Reader r(snap::unframe(kSnapshotMagic, kSnapshotVersion, bytes));
  SnapshotAccess::restore(mgr, r, injector);
}

std::unique_ptr<ConfigurationManager> restore_snapshot_new(
    const std::string& bytes, FaultInjector* injector) {
  const SnapshotInfo info = peek_snapshot(bytes);
  auto mgr =
      std::make_unique<ConfigurationManager>(info.geometry, info.scheduler);
  restore_snapshot(*mgr, bytes, injector);
  return mgr;
}

void save_snapshot_file(const std::string& path,
                        const ConfigurationManager& mgr,
                        const FaultInjector* injector) {
  snap::write_file_atomic(path, save_snapshot(mgr, injector));
}

std::unique_ptr<ConfigurationManager> restore_snapshot_file(
    const std::string& path, FaultInjector* injector) {
  return restore_snapshot_new(snap::read_file(path), injector);
}

}  // namespace rsp::xpp
