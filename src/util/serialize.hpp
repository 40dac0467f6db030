#pragma once
// Tiny binary serialization for model checkpoints.
//
// Format: magic "IBRR" + u32 version + u64 tensor count, then per tensor a
// u32 rank, i64 dims, and raw little-endian float payload. Endianness is not
// converted (checkpoints are machine-local artifacts of this repo's benches).

#include <cstdint>
#include <string>
#include <vector>

namespace ibrar::serialize {

struct NamedBlob {
  std::string name;
  std::vector<std::int64_t> shape;
  std::vector<float> data;
};

/// Write all blobs to `path`; throws std::runtime_error on I/O failure.
void save(const std::string& path, const std::vector<NamedBlob>& blobs);

/// Read blobs back; throws std::runtime_error on I/O or format failure,
/// including a negative dim, a payload whose length differs from its shape's
/// element count, and a payload longer than the rest of the file (all
/// checked before the payload is allocated).
std::vector<NamedBlob> load(const std::string& path);

}  // namespace ibrar::serialize
