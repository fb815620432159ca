#include "src/snapshot/snapshot_io.h"

#include <cstdio>

namespace psbox {

namespace {

// A section marker is a two-byte sentinel, a one-byte name length and the
// name itself. The sentinel makes a misaligned parse fail fast even when the
// misread length byte happens to be plausible.
constexpr uint8_t kSectionSentinel0 = 0x5E;
constexpr uint8_t kSectionSentinel1 = 0xC7;

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

}  // namespace

uint32_t SnapshotCrc32(const uint8_t* data, size_t n) {
  static const Crc32Table table;
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table.t[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool SnapshotWriter::Section(const char* name) {
  U8(kSectionSentinel0);
  U8(kSectionSentinel1);
  const size_t n = std::char_traits<char>::length(name);
  U8(static_cast<uint8_t>(n));
  Bytes(name, n);
  return true;
}

std::vector<uint8_t> SnapshotWriter::Seal() const {
  std::vector<uint8_t> out;
  out.reserve(kSnapshotHeaderSize + buf_.size());
  out.insert(out.end(), kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic));
  auto le = [&out](uint64_t v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  le(kSnapshotFormatVersion, 4);
  le(buf_.size(), 8);
  le(SnapshotCrc32(buf_.data(), buf_.size()), 4);
  out.insert(out.end(), buf_.begin(), buf_.end());
  return out;
}

bool SnapshotWriter::WriteFile(const std::string& path,
                               std::string* error) const {
  const std::vector<uint8_t> sealed = Seal();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "snapshot: cannot open " + tmp + " for writing";
    }
    return false;
  }
  const size_t written = std::fwrite(sealed.data(), 1, sealed.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != sealed.size() || !flushed) {
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

bool SnapshotReader::Open(const uint8_t* data, size_t n) {
  ok_ = true;
  error_.clear();
  payload_.clear();
  pos_ = 0;
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
  payload_.assign(data + kSnapshotHeaderSize, data + n);
  return true;
}

bool SnapshotReader::OpenFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ok_ = true;  // Fail() records only the first error
    error_.clear();
    Fail("snapshot: cannot open " + path);
    return false;
  }
  std::vector<uint8_t> bytes;
  uint8_t chunk[4096];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  std::fclose(f);
  return Open(bytes.data(), bytes.size());
}

uint8_t SnapshotReader::ReadByte() {
  if (!ok_) {
    return 0;
  }
  if (pos_ >= payload_.size()) {
    Fail("snapshot payload exhausted at offset " + std::to_string(pos_));
    return 0;
  }
  return payload_[pos_++];
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
  std::string s(payload_.begin() + static_cast<ptrdiff_t>(pos_),
                payload_.begin() + static_cast<ptrdiff_t>(pos_ + len));
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
