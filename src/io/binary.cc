// Copyright 2026 The DOD Authors.

#include "io/binary.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

namespace dod {
namespace {

constexpr char kMagic[8] = {'D', 'O', 'D', 'B', 'I', 'N', '1', '\0'};

}  // namespace

Status WriteBinary(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(kMagic, sizeof(kMagic));
  const uint32_t dims = static_cast<uint32_t>(dataset.dims());
  const uint64_t count = dataset.size();
  out.write(reinterpret_cast<const char*>(&dims), sizeof(dims));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(dataset.raw().data()),
            static_cast<std::streamsize>(dataset.raw().size() *
                                         sizeof(double)));
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<Dataset> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);

  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a DODBIN1 file: " + path);
  }
  uint32_t dims = 0;
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&dims), sizeof(dims));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || dims < 1 || dims > static_cast<uint32_t>(kMaxDimensions)) {
    return Status::InvalidArgument("bad header in " + path);
  }
  // The header is untrusted: size the payload against the bytes the file
  // actually holds before allocating anything. Dividing instead of
  // multiplying keeps a huge count from wrapping count * dims.
  const std::streamoff payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(payload_start);
  if (!in || payload_start < 0 || file_end < payload_start) {
    return Status::IoError("cannot size " + path);
  }
  const uint64_t payload_bytes =
      static_cast<uint64_t>(file_end - payload_start);
  if (count > payload_bytes / (uint64_t{dims} * sizeof(double))) {
    return Status::InvalidArgument(
        "truncated payload in " + path + ": header claims " +
        std::to_string(count) + " points of " + std::to_string(dims) +
        " dims, file holds " + std::to_string(payload_bytes) + " bytes");
  }

  Dataset dataset(static_cast<int>(dims));
  dataset.mutable_raw().resize(static_cast<size_t>(count) * dims);
  in.read(reinterpret_cast<char*>(dataset.mutable_raw().data()),
          static_cast<std::streamsize>(dataset.mutable_raw().size() *
                                       sizeof(double)));
  if (!in || in.gcount() !=
                 static_cast<std::streamsize>(dataset.mutable_raw().size() *
                                              sizeof(double))) {
    return Status::InvalidArgument("truncated payload in " + path);
  }
  // Trailing bytes indicate a corrupted or mismatched file.
  char extra;
  in.read(&extra, 1);
  if (!in.eof()) {
    return Status::InvalidArgument("trailing bytes in " + path);
  }
  // The payload is raw doubles; bit patterns for NaN/inf round-trip
  // perfectly through the format, so corruption (or a hostile writer) must
  // be caught by value, not by parse failure.
  DOD_RETURN_IF_ERROR(dataset.Validate());
  return dataset;
}

}  // namespace dod
