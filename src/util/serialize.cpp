#include "util/serialize.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace ibrar::serialize {
namespace {

constexpr char kMagic[4] = {'I', 'B', 'R', 'R'};
constexpr std::uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const { if (f != nullptr) std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_bytes(std::FILE* f, const void* p, std::size_t n) {
  if (std::fwrite(p, 1, n, f) != n) {
    throw std::runtime_error("serialize: short write");
  }
}

void read_bytes(std::FILE* f, void* p, std::size_t n) {
  if (std::fread(p, 1, n, f) != n) {
    throw std::runtime_error("serialize: short read");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& v) { write_bytes(f, &v, sizeof(T)); }

template <typename T>
T read_pod(std::FILE* f) {
  T v{};
  read_bytes(f, &v, sizeof(T));
  return v;
}

void write_string(std::FILE* f, const std::string& s) {
  write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(s.size()));
  write_bytes(f, s.data(), s.size());
}

std::string read_string(std::FILE* f) {
  const auto n = read_pod<std::uint32_t>(f);
  if (n > (1u << 20)) throw std::runtime_error("serialize: name too long");
  std::string s(n, '\0');
  read_bytes(f, s.data(), n);
  return s;
}

}  // namespace

void save(const std::string& path, const std::vector<NamedBlob>& blobs) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("serialize: cannot open " + path);
  write_bytes(f.get(), kMagic, sizeof(kMagic));
  write_pod(f.get(), kVersion);
  write_pod<std::uint64_t>(f.get(), blobs.size());
  for (const auto& b : blobs) {
    write_string(f.get(), b.name);
    write_pod<std::uint32_t>(f.get(), static_cast<std::uint32_t>(b.shape.size()));
    for (const auto d : b.shape) write_pod<std::int64_t>(f.get(), d);
    write_pod<std::uint64_t>(f.get(), b.data.size());
    write_bytes(f.get(), b.data.data(), b.data.size() * sizeof(float));
  }
}

std::vector<NamedBlob> load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("serialize: cannot open " + path);
  // The file size bounds every payload, so a count read from the file is
  // checked before anything is allocated for it.
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  std::rewind(f.get());
  char magic[4];
  read_bytes(f.get(), magic, sizeof(magic));
  if (std::string(magic, 4) != std::string(kMagic, 4)) {
    throw std::runtime_error("serialize: bad magic in " + path);
  }
  const auto version = read_pod<std::uint32_t>(f.get());
  if (version != kVersion) throw std::runtime_error("serialize: bad version");
  const auto count = read_pod<std::uint64_t>(f.get());
  std::vector<NamedBlob> blobs;
  for (std::uint64_t i = 0; i < count; ++i) {
    NamedBlob b;
    b.name = read_string(f.get());
    const auto rank = read_pod<std::uint32_t>(f.get());
    if (rank > 8) throw std::runtime_error("serialize: rank too large");
    b.shape.resize(rank);
    std::uint64_t elems = 1;
    for (auto& d : b.shape) {
      d = read_pod<std::int64_t>(f.get());
      if (d < 0) throw std::runtime_error("serialize: negative dim in " + b.name);
      // Saturate instead of wrapping: no payload matches a product that big.
      const auto ud = static_cast<std::uint64_t>(d);
      elems = ud != 0 && elems > UINT64_MAX / ud ? UINT64_MAX : elems * ud;
    }
    const auto numel = read_pod<std::uint64_t>(f.get());
    if (numel != elems) {
      throw std::runtime_error("serialize: payload of " + b.name +
                               " does not match its shape");
    }
    const auto left = static_cast<std::uint64_t>(size - std::ftell(f.get()));
    if (numel > left / sizeof(float)) {
      throw std::runtime_error("serialize: payload of " + b.name +
                               " runs past the end of " + path);
    }
    b.data.resize(numel);
    read_bytes(f.get(), b.data.data(), numel * sizeof(float));
    blobs.push_back(std::move(b));
  }
  return blobs;
}

}  // namespace ibrar::serialize
