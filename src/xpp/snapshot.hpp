// Bit-exact snapshot/restore of the XPP runtime.
//
// A snapshot captures everything the simulation's future depends on —
// net token state (value/occupancy/consumed-mask/generation), every
// object's architectural registers (ALU accumulators and merge
// toggles, counter value/remaining, RAM/FIFO/LUT contents and replay
// position, I/O queues and collected output words), configuration
// residency (each loaded Configuration plus its bookkeeping) and the
// raw ResourceMap occupancy — framed in a CRC-32-checked, versioned
// binary format that reuses the canonical-serialization discipline of
// the configuration checksum (src/xpp/builder.cpp): fixed field order,
// tagged records, explicit lengths.
//
// Restore contract (the differential battery in tests/xpp/
// test_snapshot.cpp pins this): the post-restore trajectory is
// bit-identical to the uninterrupted run under every SchedulerKind.
//  - kScan needs no scheduler state: it rescans everything.
//  - kEventDriven is reseeded conservatively: every object is enqueued
//    and every net with a pending commit is marked dirty.  Enqueuing
//    extra objects cannot change the firing fixed point (readiness
//    rules, not worklist membership, decide fires — the kScan
//    equivalence proof), so the trajectory is exact even though the
//    worklist contents differ from the uninterrupted run's.
//  - kCompiled snapshots deoptimize first (epoch SoA state is packed
//    back into the nets) and restore to a fresh detector.  Re-detection
//    costs interpreted warm-up cycles but never bit-exactness: replay
//    is bit-identical to interpretation by construction, no matter
//    when (or whether) the restored run re-arms.
//  - An installed FaultInjector can be captured alongside (plan cursor,
//    live stuck-at windows, SEU RNG state, event log), so a snapshot
//    taken inside an armed fault window resumes the identical fault
//    stream.
//
// Out of scope: Tracer counters (observability, not simulation state)
// and CompiledEngine statistics (the restored engine re-detects).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/xpp/manager.hpp"

namespace rsp::xpp {

class FaultInjector;

/// Diagnostic failure while framing, parsing or applying a snapshot:
/// truncated or bit-flipped files, wrong magic/version, CRC mismatch,
/// or a payload inconsistent with the target (geometry/scheduler
/// mismatch, non-fresh manager).  Corruption is always detected at the
/// frame check, before any state is touched — a failed restore never
/// leaves a partial result.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

namespace snap {

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) over a byte
/// range — table-driven, unlike the bitwise dedhw::Crc the
/// configuration checksum uses, because snapshot payloads are
/// kilobytes, not tens of bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n);

/// Little-endian byte sink (the writer half of the canonical format).
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void b(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
  }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked reader; every overrun throws SnapshotError instead
/// of reading past the payload.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : p_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[pos_++]);
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] long long i64() { return static_cast<long long>(u64()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(p_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::size_t remaining() const { return p_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (p_.size() - pos_ < n) {
      throw SnapshotError("snapshot: truncated payload (need " +
                          std::to_string(n) + " byte(s), have " +
                          std::to_string(p_.size() - pos_) + ")");
    }
  }

  std::string_view p_;
  std::size_t pos_ = 0;
};

/// Frame layout: magic (8 bytes) | version u32 | payload length u64 |
/// payload CRC-32 u32 | payload.  unframe() re-validates all four
/// before returning the payload view.
[[nodiscard]] std::string frame(const char magic[8], std::uint32_t version,
                                const std::string& payload);
[[nodiscard]] std::string_view unframe(const char magic[8],
                                       std::uint32_t version,
                                       std::string_view bytes);

/// Atomic file emission: write to a temp file of this call's own
/// ("<path>.tmp.<pid>.<n>"), flush, then rename over @p path — a reader
/// (or a resume after SIGKILL) sees the old or the new complete file,
/// never a torn one.  Callers order concurrent writes to one path.
void write_file_atomic(const std::string& path, const std::string& bytes);

/// Whole-file read; throws SnapshotError when the file cannot be read.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace snap

/// Snapshot format version stamped into every frame.
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Parsed snapshot header (no state is applied).
struct SnapshotInfo {
  std::uint32_t version = 0;
  ArrayGeometry geometry;
  SchedulerKind scheduler = SchedulerKind::kEventDriven;
  long long cycle = 0;
  std::uint32_t configs = 0;       ///< resident configurations
  bool has_fault_state = false;    ///< a FaultInjector was captured
};

/// Serialize the complete state of @p mgr (and, optionally, the
/// injector driving its simulator).  Under kCompiled any live epoch is
/// deoptimized first — observable simulation state is unchanged (same
/// logical-const contract as Simulator::diagnose).
[[nodiscard]] std::string save_snapshot(const ConfigurationManager& mgr,
                                        const FaultInjector* injector = nullptr);

/// Parse and validate the frame + header without applying anything.
[[nodiscard]] SnapshotInfo peek_snapshot(const std::string& bytes);

/// Restore @p bytes into @p mgr, which must be freshly constructed
/// (cycle 0, nothing loaded) with the snapshot's geometry and
/// scheduler kind.  If the snapshot carries fault-injector state,
/// @p injector must be non-null; it is filled and installed on the
/// restored simulator.  Throws SnapshotError on any mismatch; the
/// frame CRC is verified before any state is touched.
void restore_snapshot(ConfigurationManager& mgr, const std::string& bytes,
                      FaultInjector* injector = nullptr);

/// Convenience: construct a manager matching the snapshot's geometry
/// and scheduler, then restore into it.
[[nodiscard]] std::unique_ptr<ConfigurationManager> restore_snapshot_new(
    const std::string& bytes, FaultInjector* injector = nullptr);

/// File variants (atomic temp+rename on save).
void save_snapshot_file(const std::string& path,
                        const ConfigurationManager& mgr,
                        const FaultInjector* injector = nullptr);
[[nodiscard]] std::unique_ptr<ConfigurationManager> restore_snapshot_file(
    const std::string& path, FaultInjector* injector = nullptr);

}  // namespace rsp::xpp
