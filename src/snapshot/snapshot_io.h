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
// Both classes are archives with one shared vocabulary, so every class
// writes its schema once, as a single body both directions run (the archive
// idiom of boost.serialization and cereal):
//
//   template <class Ar>
//   void Foo::Serialize(Ar& ar) {
//     ar.Section("foo");
//     ar.I64(start_);                // the writer appends, the reader assigns
//     ar.Seq(items_, 12, [&](Item& i) { ar.U32(i.n); ar.F64(i.x); });
//     if constexpr (Ar::kLoading) {  // load-only re-linking and validation
//       ...
//     }
//   }
//
// Field ops take references and name their wire width; the value converts
// as a static_cast would. The reader's checks live in the ops, so they are
// made once: counts are clamped against the remaining payload, enums are
// range-checked, task references resolve or fail, and Expect() compares a
// value the restoring side already knows.
//
// This header is dependency-free (standard library only) so that the lowest
// layers of the tree (base/, sim/, hw/) can serialize themselves without
// cycles. Pending events are not a field op: the engine writes its own
// records (Simulator::Serialize).

#ifndef SRC_SNAPSHOT_SNAPSHOT_IO_H_
#define SRC_SNAPSHOT_SNAPSHOT_IO_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
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
// v5: live objects only, keyed by id — the kernel's live apps (each with
// its tasks), the scheduler's groups by box id, the manager's id counter
// and live boxes under their ids, and each box's closed-children energy.
// v6: live apps by recipe — per board, the population cursor and the recipe
// (tenant, fleet spawn or generated arrival) of each live app under its app
// and first task ids; the kernel's id counters are restored, not compared;
// the per-sub-fleet spawn logs are gone.
// v7: each domain keeps its principals' power state — the CPU governor's
// global and per-box OPPs with the running box, each accelerator lane's OPP
// and governor busy/wall time beside a global one; the frequency-context
// tables, the kernel's box-to-context map, the drain watchdogs' fire
// counts, the sandboxes' plain energy bases and estimated-energy bases, and
// the crash-state-transfer byte of the compat block are gone.
// v8: events as data — each shard opens with the engine's section (clock,
// fired count, next seq, then every pending record: target, kind, two
// arguments, time and seq); the per-subsystem event presence flags, times,
// seqs and the six pending-event lists are gone.
// v9: ownership recorded once — each domain carries its balloon's serve
// instant in place of a flag; each sandbox's seven open spans and seven
// nesting depths, each CPU group's coscheduling flag, notify flag and
// balloon start, and the scheduler's balloon reference are gone.
// v10: one virtual meter — each step trace carries its cumulative integral
// at its first step only (the load derives the rest); the GPS carries its
// revealed-power trace in place of its operating trace; each sandbox's
// display and GPS energy bases and integration starts and the NIC's
// TX-pending flag are gone, and an anchor may sit on a dropout edge inside
// its span.
inline constexpr uint32_t kSnapshotFormatVersion = 10;
inline constexpr char kSnapshotMagic[8] = {'P', 'S', 'B', 'X',
                                           'S', 'N', 'A', 'P'};
inline constexpr size_t kSnapshotHeaderSize = 8 + 4 + 8 + 4;

// CRC-32 of |data|[0, n) over the reflected polynomial 0xEDB88320 (zlib's
// and Ethernet's). The kernel is chosen once per process: on an x86-64 CPU
// with PCLMULQDQ, carry-less-multiply folding, which runs at memory speed
// (about 18 GB/s from cache on a 4-core Xeon); elsewhere the portable
// slicing-by-8 table (1.5-1.9 GB/s there). Both give the same value for
// every input; the folded kernel hands inputs under 64 bytes and its last
// under-16-byte tail to the table.
uint32_t SnapshotCrc32(const uint8_t* data, size_t n);
// The two kernels SnapshotCrc32 chooses between, for tests and benches that
// check or time each one. SnapshotCrc32Folded may run only where
// SnapshotCrc32FoldedSupported() is true (on an x86-64 CPU without
// PCLMULQDQ it faults); builds for other architectures report false and
// make it the table.
uint32_t SnapshotCrc32Portable(const uint8_t* data, size_t n);
uint32_t SnapshotCrc32Folded(const uint8_t* data, size_t n);
bool SnapshotCrc32FoldedSupported();

// Expect()'s wire width follows the C++ type: Bool, Str, F64 for doubles,
// U8 for enums and 8-bit values, I64 for other signed and U64 for other
// unsigned integers.
template <typename Ar, typename T>
void SnapshotNatural(Ar& ar, T& v) {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, bool>) {
    ar.Bool(v);
  } else if constexpr (std::is_same_v<U, std::string>) {
    ar.Str(v);
  } else if constexpr (std::is_floating_point_v<U>) {
    ar.F64(v);
  } else if constexpr (std::is_enum_v<U> || sizeof(U) == 1) {
    ar.U8(v);
  } else if constexpr (std::is_signed_v<U>) {
    ar.I64(v);
  } else {
    ar.U64(v);
  }
}

class SnapshotWriter {
 public:
  static constexpr bool kLoading = false;

  // --- field ops ----------------------------------------------------------
  template <typename T>
  void U8(const T& v) { buf_.push_back(static_cast<uint8_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  template <typename T>
  void U32(const T& v) { AppendLe(static_cast<uint32_t>(v)); }
  template <typename T>
  void U64(const T& v) { AppendLe(static_cast<uint64_t>(v)); }
  template <typename T>
  void I64(const T& v) {
    AppendLe(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
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
  bool Section(const char* name);

  // An element count (u64).
  void Count(size_t n, size_t /*min_element_size*/) { U64(n); }

  // An enum as one byte; the reader rejects values past |last|.
  template <typename E>
  void Enum(const E& e, E /*last*/, const char* /*what*/) {
    U8(static_cast<uint8_t>(e));
  }

  // A value the restoring side already knows (scenario parameters, object
  // identities); the reader compares and fails with |mismatch|.
  template <typename T>
  void Expect(const T& v, const char* /*mismatch*/) {
    SnapshotNatural(*this, v);
  }

  // A task pointer as its id (u64, 0 for none); the reader resolves it
  // through |tasks|.TaskById.
  template <typename T, typename Tasks>
  void TaskRef(T* const& t, Tasks& /*tasks*/, const char* /*unknown*/,
               bool /*nullable*/ = true) {
    U64(t != nullptr ? static_cast<uint64_t>(t->id()) : 0);
  }

  // --- container ops ------------------------------------------------------
  // A count, then |body| on every element.
  template <typename C, typename F>
  void Seq(C& c, size_t /*min_element_size*/, F&& body) {
    Count(c.size(), 0);
    for (auto& e : c) {
      body(e);
    }
  }
  // Like Seq, over a container whose size the restoring side fixes; the
  // reader fails with |mismatch| on another count and fills it in place.
  template <typename C, typename F>
  void Fixed(C& c, size_t min_element_size, const char* /*mismatch*/,
             F&& body) {
    Seq(c, min_element_size, body);
  }
  // A count, then |body(key, value)| per entry in ascending key order, so
  // identical states always produce identical bytes. |key| is a copy: the
  // body writes it when the wire carries it.
  template <typename M, typename F>
  void Map(M& m, size_t /*min_element_size*/, F&& body) {
    Count(m.size(), 0);
    if constexpr (requires { typename M::key_compare; }) {
      for (auto& [k, v] : m) {
        auto key = k;
        body(key, v);
      }
    } else {
      std::vector<typename M::value_type*> sorted;
      sorted.reserve(m.size());
      for (auto& kv : m) {
        sorted.push_back(&kv);
      }
      std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
        return a->first < b->first;
      });
      for (auto* kv : sorted) {
        auto key = kv->first;
        body(key, kv->second);
      }
    }
  }

  // A writer never fails; loops shared with the reader test ok().
  bool ok() const { return true; }

  // Header + payload, ready to hit disk or a wire.
  std::vector<uint8_t> Seal() const;

  // Writes the header and then the payload to |path|, without a sealed copy
  // (via a rename from a temp file, so a crashed writer cannot leave a
  // half-written snapshot under the final name).
  bool WriteFile(const std::string& path, std::string* error) const;

 private:
  // The fixed header of the current payload.
  void Header(uint8_t (&header)[kSnapshotHeaderSize]) const;

  template <typename T>
  void AppendLe(T v) {
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<uint8_t> buf_;
};

class SnapshotReader {
 public:
  static constexpr bool kLoading = true;

  SnapshotReader() = default;
  // The payload pointer aims into the reader's own bytes.
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  // Validates the header of a sealed snapshot and copies its payload. On
  // failure the reader is poisoned (ok() false, error() descriptive).
  bool Open(const uint8_t* data, size_t n);
  bool Open(const std::vector<uint8_t>& sealed) {
    return Open(sealed.data(), sealed.size());
  }
  // Reads |path| in one go and parses the payload in place.
  bool OpenFile(const std::string& path);

  // --- plain reads --------------------------------------------------------
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

  // --- field ops (see SnapshotWriter) -------------------------------------
  template <typename T>
  void U8(T& v) { v = static_cast<T>(U8()); }
  void Bool(bool& v) { v = Bool(); }
  template <typename T>
  void U32(T& v) { v = static_cast<T>(U32()); }
  template <typename T>
  void U64(T& v) { v = static_cast<T>(U64()); }
  template <typename T>
  void I64(T& v) { v = static_cast<T>(I64()); }
  void F64(double& v) { v = F64(); }
  void Str(std::string& s) { s = Str(); }

  // Verifies the next section marker; poisons the reader on mismatch.
  bool Section(const char* name);

  // Reads an element count and clamps it against the bytes actually left in
  // the payload (each element takes >= |min_element_size| bytes), so a
  // corrupt count cannot trigger a huge allocation.
  void Count(size_t& n, size_t min_element_size) {
    n = ReadCount(min_element_size);
  }

  template <typename E>
  void Enum(E& e, E last, const char* what) {
    const size_t at = pos_;
    const uint8_t v = U8();
    if (ok_ && v > static_cast<uint8_t>(last)) {
      Fail(std::string("snapshot ") + what + " " + std::to_string(v) +
           " out of range at offset " + std::to_string(at));
      return;
    }
    e = static_cast<E>(v);
  }

  template <typename T>
  void Expect(const T& v, const char* mismatch) {
    std::remove_cv_t<T> got{};
    SnapshotNatural(*this, got);
    if (ok_ && !(got == v)) {
      Fail(mismatch);
    }
  }

  // Id 0 is null unless |nullable| is false; an id that resolves to no task
  // fails with |unknown|.
  template <typename T, typename Tasks>
  void TaskRef(T*& t, Tasks& tasks, const char* unknown, bool nullable = true) {
    using Id = decltype(t->id());
    const uint64_t id = U64();
    t = nullptr;
    if (!ok_ || (id == 0 && nullable)) {
      return;
    }
    if (id <= static_cast<uint64_t>(std::numeric_limits<Id>::max())) {
      t = tasks.TaskById(static_cast<Id>(id));
    }
    if (t == nullptr) {
      Fail(unknown);
    }
  }

  // --- container ops (see SnapshotWriter) ---------------------------------
  // Replaces |c| with the read elements; an element whose body failed is
  // dropped.
  template <typename C, typename F>
  void Seq(C& c, size_t min_element_size, F&& body) {
    const size_t n = ReadCount(min_element_size);
    c.clear();
    if constexpr (requires { c.reserve(n); }) {
      c.reserve(n);
    }
    for (size_t i = 0; i < n && ok_; ++i) {
      typename C::value_type e{};
      body(e);
      if (ok_) {
        c.insert(c.end(), std::move(e));
      }
    }
  }
  template <typename C, typename F>
  void Fixed(C& c, size_t min_element_size, const char* mismatch, F&& body) {
    const size_t n = ReadCount(min_element_size);
    if (ok_ && n != c.size()) {
      Fail(mismatch);
    }
    for (auto it = c.begin(); it != c.end() && ok_; ++it) {
      body(*it);
    }
  }
  template <typename M, typename F>
  void Map(M& m, size_t min_element_size, F&& body) {
    const size_t n = ReadCount(min_element_size);
    m.clear();
    for (size_t i = 0; i < n && ok_; ++i) {
      typename M::key_type k{};
      typename M::mapped_type v{};
      body(k, v);
      m.insert_or_assign(std::move(k), std::move(v));
    }
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  // Semantic failure raised by a caller (e.g. an impossible field value).
  void Fail(const std::string& msg);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  uint8_t ReadByte() {
    if (ok_ && pos_ < size_) {
      return payload_[pos_++];
    }
    Exhausted();
    return 0;
  }
  // One bounds check and one load; only a read that runs off the end goes
  // byte by byte, so the error names the offset where the payload ran out.
  template <typename T>
  T ReadLe() {
    T v = 0;
    if (ok_ && size_ - pos_ >= sizeof(T)) {
      if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, payload_ + pos_, sizeof(T));
      } else {
        for (size_t i = 0; i < sizeof(T); ++i) {
          v |= static_cast<T>(payload_[pos_ + i]) << (8 * i);
        }
      }
      pos_ += sizeof(T);
      return v;
    }
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(ReadByte()) << (8 * i);
    }
    return v;
  }
  // Poisons the reader at the end of the payload (no-op once poisoned).
  void Exhausted();
  size_t ReadCount(size_t min_element_size);
  void Reset();
  // Validates the header of the sealed snapshot |data|[0, n); on success
  // the payload is the bytes past the header.
  bool CheckHeader(const uint8_t* data, size_t n);

  // Owned bytes; the payload is |size_| bytes at |payload_| inside them.
  std::vector<uint8_t> bytes_;
  const uint8_t* payload_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

}  // namespace psbox

#endif  // SRC_SNAPSHOT_SNAPSHOT_IO_H_
