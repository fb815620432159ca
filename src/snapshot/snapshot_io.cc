#include "src/snapshot/snapshot_io.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace psbox {

namespace {

// A section marker is a two-byte sentinel, a one-byte name length and the
// name itself. The sentinel makes a misaligned parse fail fast even when the
// misread length byte happens to be plausible.
constexpr uint8_t kSectionSentinel0 = 0x5E;
constexpr uint8_t kSectionSentinel1 = 0xC7;

// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
// t[0] is the bytewise table, and t[k][i] is the CRC of byte i followed by k
// zero bytes, so one step folds eight input bytes with eight lookups.
struct Crc32Tables {
  uint32_t t[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
  }
};

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Continues the CRC register |c| (the running value before the final
// inversion) over |data|[0, n), eight bytes per table step.
uint32_t TableCrc32(uint32_t c, const uint8_t* data, size_t n) {
  static const Crc32Tables tables;
  const auto& t = tables.t;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = LoadLe32(data) ^ c;
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c;
}

}  // namespace

uint32_t SnapshotCrc32Portable(const uint8_t* data, size_t n) {
  return TableCrc32(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__) && defined(__GNUC__)
namespace {

// Continues the CRC register |c| over |p|[0, n), n >= 64 and a multiple of
// 16, by carry-less-multiply folding (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009; the
// kernel of Chromium zlib's crc32_simd.c). Four 128-bit lanes each fold 64
// bytes ahead per step; the lanes then fold into one, which takes the rest
// 16 bytes per step, and the 128-bit remainder is folded to 64 bits and
// Barrett-reduced to 32. The constants are the white paper's for the
// bit-reflected polynomial: k1..k5 are powers of x modulo P(x) (k1/k2 fold
// by 512 bits, k3/k4 by 128, k5 by 64), then P(x) itself and the Barrett
// quotient mu = x^64 / P(x). Only this function is compiled for PCLMULQDQ;
// SnapshotCrc32 calls it only on a CPU that has the instruction.
__attribute__((target("pclmul"))) uint32_t FoldCrc32(uint32_t c,
                                                     const uint8_t* p,
                                                     size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01C6E41596, 0x0154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x00CCAA009E, 0x01751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163CD6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01F7011641, 0x01DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  // (x ^ y on __m128i is GCC's and Clang's vector xor.)
  __m128i x0 = load(p) ^ _mm_cvtsi32_si128(static_cast<int>(c));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_clmulepi64_si128(x0, k1k2, 0x00) ^
         _mm_clmulepi64_si128(x0, k1k2, 0x11) ^ load(p);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x00) ^
         _mm_clmulepi64_si128(x1, k1k2, 0x11) ^ load(p + 16);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x00) ^
         _mm_clmulepi64_si128(x2, k1k2, 0x11) ^ load(p + 32);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x00) ^
         _mm_clmulepi64_si128(x3, k1k2, 0x11) ^ load(p + 48);
  }
  for (const __m128i next : {x1, x2, x3}) {
    x0 = _mm_clmulepi64_si128(x0, k3k4, 0x00) ^
         _mm_clmulepi64_si128(x0, k3k4, 0x11) ^ next;
  }
  for (; n >= 16; p += 16, n -= 16) {
    x0 = _mm_clmulepi64_si128(x0, k3k4, 0x00) ^
         _mm_clmulepi64_si128(x0, k3k4, 0x11) ^ load(p);
  }
  // 128 bits to 64, then to 32 bits above 32 zero bits.
  x0 = _mm_srli_si128(x0, 8) ^ _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_srli_si128(x0, 4) ^
       _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  // Barrett reduction: q = floor(x * mu), then x ^= q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0 ^ q, 4)));
}

}  // namespace

bool SnapshotCrc32FoldedSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
}

uint32_t SnapshotCrc32Folded(const uint8_t* data, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = FoldCrc32(c, data, folded);
    data += folded;
    n -= folded;
  }
  return TableCrc32(c, data, n) ^ 0xFFFFFFFFu;
}
#else
bool SnapshotCrc32FoldedSupported() { return false; }

uint32_t SnapshotCrc32Folded(const uint8_t* data, size_t n) {
  return SnapshotCrc32Portable(data, n);
}
#endif

uint32_t SnapshotCrc32(const uint8_t* data, size_t n) {
  static const bool folded = SnapshotCrc32FoldedSupported();
  return folded ? SnapshotCrc32Folded(data, n)
                : SnapshotCrc32Portable(data, n);
}

bool SnapshotWriter::Section(const char* name) {
  U8(kSectionSentinel0);
  U8(kSectionSentinel1);
  const size_t n = std::char_traits<char>::length(name);
  U8(static_cast<uint8_t>(n));
  Bytes(name, n);
  return true;
}

void SnapshotWriter::Header(uint8_t (&header)[kSnapshotHeaderSize]) const {
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  const auto put_le = [&header](size_t at, uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      header[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  put_le(8, kSnapshotFormatVersion, 4);
  put_le(12, buf_.size(), 8);
  put_le(20, SnapshotCrc32(buf_.data(), buf_.size()), 4);
}

std::vector<uint8_t> SnapshotWriter::Seal() const {
  uint8_t header[kSnapshotHeaderSize];
  Header(header);
  std::vector<uint8_t> out;
  out.reserve(kSnapshotHeaderSize + buf_.size());
  out.assign(header, header + kSnapshotHeaderSize);
  out.insert(out.end(), buf_.begin(), buf_.end());
  return out;
}

bool SnapshotWriter::WriteFile(const std::string& path,
                               std::string* error) const {
  uint8_t header[kSnapshotHeaderSize];
  Header(header);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "snapshot: cannot open " + tmp + " for writing";
    }
    return false;
  }
  const bool written =
      std::fwrite(header, 1, sizeof(header), f) == sizeof(header) &&
      std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  const bool flushed = std::fclose(f) == 0;
  if (!written || !flushed) {
    std::remove(tmp.c_str());
    if (error != nullptr) {
      *error = "snapshot: short write to " + tmp;
    }
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    if (error != nullptr) {
      *error = "snapshot: cannot rename " + tmp + " to " + path;
    }
    return false;
  }
  return true;
}

void SnapshotReader::Reset() {
  ok_ = true;
  error_.clear();
  payload_ = nullptr;
  size_ = 0;
  pos_ = 0;
}

bool SnapshotReader::CheckHeader(const uint8_t* data, size_t n) {
  if (n < kSnapshotHeaderSize) {
    Fail("snapshot header truncated: " + std::to_string(n) + " bytes, need " +
         std::to_string(kSnapshotHeaderSize));
    return false;
  }
  if (std::memcmp(data, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    Fail("snapshot magic mismatch: not a psbox snapshot");
    return false;
  }
  auto le = [data](size_t off, size_t bytes) {
    uint64_t v = 0;
    for (size_t i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data[off + i]) << (8 * i);
    }
    return v;
  };
  const auto version = static_cast<uint32_t>(le(8, 4));
  if (version != kSnapshotFormatVersion) {
    Fail("snapshot format version " + std::to_string(version) +
         " unsupported (expected " + std::to_string(kSnapshotFormatVersion) +
         ")");
    return false;
  }
  const uint64_t payload_size = le(12, 8);
  if (payload_size != n - kSnapshotHeaderSize) {
    Fail("snapshot truncated: header declares " + std::to_string(payload_size) +
         " payload bytes, got " + std::to_string(n - kSnapshotHeaderSize));
    return false;
  }
  const auto crc = static_cast<uint32_t>(le(20, 4));
  const uint32_t actual =
      SnapshotCrc32(data + kSnapshotHeaderSize, payload_size);
  if (crc != actual) {
    Fail("snapshot payload CRC mismatch (corrupt or torn write)");
    return false;
  }
  return true;
}

bool SnapshotReader::Open(const uint8_t* data, size_t n) {
  Reset();
  bytes_.clear();
  if (!CheckHeader(data, n)) {
    return false;
  }
  bytes_.assign(data + kSnapshotHeaderSize, data + n);
  payload_ = bytes_.data();
  size_ = bytes_.size();
  return true;
}

bool SnapshotReader::OpenFile(const std::string& path) {
  Reset();
  bytes_.clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    Fail("snapshot: cannot open " + path);
    return false;
  }
  // One read of the file's size, then whatever lies past it (a file that
  // grew, or one whose size the filesystem does not report).
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (!ec) {
    bytes_.resize(static_cast<size_t>(size));
    bytes_.resize(std::fread(bytes_.data(), 1, bytes_.size(), f));
  }
  uint8_t chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes_.insert(bytes_.end(), chunk, chunk + got);
  }
  std::fclose(f);
  if (!CheckHeader(bytes_.data(), bytes_.size())) {
    bytes_.clear();
    return false;
  }
  payload_ = bytes_.data() + kSnapshotHeaderSize;
  size_ = bytes_.size() - kSnapshotHeaderSize;
  return true;
}

void SnapshotReader::Exhausted() {
  if (!ok_) {
    return;
  }
  Fail("snapshot payload exhausted at offset " + std::to_string(pos_));
}

std::string SnapshotReader::Str() {
  const uint32_t len = U32();
  if (!ok_) {
    return {};
  }
  if (len > remaining()) {
    Fail("snapshot string length " + std::to_string(len) +
         " exceeds remaining payload at offset " + std::to_string(pos_));
    return {};
  }
  std::string s(reinterpret_cast<const char*>(payload_ + pos_), len);
  pos_ += len;
  return s;
}

size_t SnapshotReader::ReadCount(size_t min_element_size) {
  const uint64_t count = U64();
  if (!ok_) {
    return 0;
  }
  if (min_element_size == 0) {
    min_element_size = 1;
  }
  if (count > remaining() / min_element_size) {
    Fail("snapshot element count " + std::to_string(count) +
         " exceeds remaining payload at offset " + std::to_string(pos_));
    return 0;
  }
  return static_cast<size_t>(count);
}

bool SnapshotReader::Section(const char* name) {
  const size_t at = pos_;
  const uint8_t s0 = ReadByte();
  const uint8_t s1 = ReadByte();
  if (ok_ && (s0 != kSectionSentinel0 || s1 != kSectionSentinel1)) {
    Fail(std::string("snapshot section '") + name +
         "' marker missing at offset " + std::to_string(at) +
         " (format drift?)");
    return false;
  }
  const uint8_t len = ReadByte();
  std::string found;
  for (uint8_t i = 0; i < len && ok_; ++i) {
    found.push_back(static_cast<char>(ReadByte()));
  }
  if (ok_ && found != name) {
    Fail("snapshot section mismatch at offset " + std::to_string(at) +
         ": expected '" + name + "', found '" + found + "'");
    return false;
  }
  return ok_;
}

void SnapshotReader::Fail(const std::string& msg) {
  if (ok_) {
    ok_ = false;
    error_ = msg;
  }
}

}  // namespace psbox
