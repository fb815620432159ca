// Versioned, CRC-guarded binary snapshot streams.
//
// A snapshot is a little-endian byte payload wrapped in a fixed header:
//
//   bytes 0..7   magic "PSBXSNAP"
//   bytes 8..11  format version (u32)
//   bytes 12..19 payload size in bytes (u64)
//   bytes 20..23 CRC-32 of the payload (u32)
//   bytes 24..   payload
//
// SnapshotWriter appends primitives to the payload; SnapshotReader validates
// the header (magic, version, size, CRC) before a single payload byte is
// parsed, so truncation and bit flips are rejected up front with a
// descriptive error instead of surfacing as garbage state. Inside the
// payload, section markers give misaligned reads (a format drift that the
// CRC cannot catch) a precise failure point: every marker names the section
// it opens, and a mismatch poisons the reader.
//
// A poisoned reader never throws and never crashes: every subsequent read
// returns a zero value, counts clamp to zero, and ok()/error() report the
// first failure. Restore orchestration checks ok() at section boundaries and
// discards the half-built objects, so a bad snapshot can never leak partial
// state into a live board.
//
// This header is dependency-free (standard library only) so that the lowest
// layers of the tree (base/, hw/) can serialize themselves without cycles.

#ifndef SRC_SNAPSHOT_SNAPSHOT_IO_H_
#define SRC_SNAPSHOT_SNAPSHOT_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace psbox {

// Bump on any payload layout change; readers reject other versions.
// v2: hierarchical fleet checkpoints — hierarchy/budget compat block,
// per-sub-fleet spawn logs and allocations, cross-sub-fleet app state.
// v3: population + nested sandboxes — population config compat block,
// per-spawn-record timestamps (arrival/spawn replay interleaving), sandbox
// hierarchy state (parent, budget ledger, ownership compose depth).
// v4: per-sandbox retention anchors (a count, then component, time and
// cumulative rail integral per anchored component).
inline constexpr uint32_t kSnapshotFormatVersion = 4;
inline constexpr char kSnapshotMagic[8] = {'P', 'S', 'B', 'X',
                                           'S', 'N', 'A', 'P'};
inline constexpr size_t kSnapshotHeaderSize = 8 + 4 + 8 + 4;

uint32_t SnapshotCrc32(const uint8_t* data, size_t n);

class SnapshotWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { AppendLe(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLe(bits);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  // Opens a named section. Purely a parse-time guard: the reader verifies
  // the name in place and poisons itself on mismatch.
  void Section(const char* name);

  // Pending-event census: every subsystem that persists one of its pending
  // events claims it here, and the save orchestrator refuses to snapshot
  // when the claimed count disagrees with the engine's live count — an
  // untracked event would otherwise silently vanish across a restore.
  void ClaimEvent() { ++claimed_events_; }
  size_t claimed_events() const { return claimed_events_; }
  void ResetClaimedEvents() { claimed_events_ = 0; }

  const std::vector<uint8_t>& payload() const { return buf_; }

  // Header + payload, ready to hit disk or a wire.
  std::vector<uint8_t> Seal() const;

  // Seals and writes to |path| (via a rename from a temp file, so a crashed
  // writer cannot leave a half-written snapshot under the final name).
  bool WriteFile(const std::string& path, std::string* error) const;

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t> buf_;
  size_t claimed_events_ = 0;
};

class SnapshotReader {
 public:
  // Validates the header of a sealed snapshot and adopts its payload. On
  // failure the reader is poisoned (ok() false, error() descriptive).
  bool Open(const uint8_t* data, size_t n);
  bool Open(const std::vector<uint8_t>& sealed) {
    return Open(sealed.data(), sealed.size());
  }
  bool OpenFile(const std::string& path);

  uint8_t U8() { return ReadByte(); }
  bool Bool() { return ReadByte() != 0; }
  uint32_t U32() { return ReadLe<uint32_t>(); }
  uint64_t U64() { return ReadLe<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(ReadLe<uint64_t>()); }
  double F64() {
    const uint64_t bits = ReadLe<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str();

  // Reads an element count and clamps it against the bytes actually left in
  // the payload (each element takes >= |min_element_size| bytes), so a
  // corrupt count cannot trigger a huge allocation.
  size_t Count(size_t min_element_size = 1);

  // Verifies the next section marker; poisons the reader on mismatch.
  bool Section(const char* name);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  // Semantic failure raised by a caller (e.g. an impossible field value).
  void Fail(const std::string& msg);

  size_t remaining() const { return payload_.size() - pos_; }
  bool AtEnd() const { return pos_ == payload_.size(); }

 private:
  uint8_t ReadByte();
  template <typename T>
  T ReadLe() {
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(ReadByte()) << (8 * i);
    }
    return v;
  }

  std::vector<uint8_t> payload_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace psbox

#endif  // SRC_SNAPSHOT_SNAPSHOT_IO_H_
