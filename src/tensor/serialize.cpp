#include "tensor/serialize.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace sesr {

namespace {
constexpr std::array<char, 4> kMagic{'S', 'E', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("serialize: truncated stream");
  return v;
}

// Bytes between the read position and the end of the stream, or -1 when the
// stream cannot seek. Header lengths are checked against this before anything
// is allocated from them.
std::int64_t bytes_left(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos < 0) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(pos);
  return end < 0 ? -1 : static_cast<std::int64_t>(end - pos);
}
}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  for (int i = 0; i < 4; ++i) write_pod(os, t.shape().dim(i));
  os.write(reinterpret_cast<const char*>(t.raw()),
           static_cast<std::streamsize>(t.numel() * static_cast<std::int64_t>(sizeof(float))));
  if (!os) throw std::runtime_error("serialize: write failed");
}

Tensor read_tensor(std::istream& is) {
  std::array<std::int64_t, 4> dims{};
  for (auto& d : dims) d = read_pod<std::int64_t>(is);
  Shape shape(dims[0], dims[1], dims[2], dims[3]);
  if (!shape.valid()) throw std::runtime_error("serialize: invalid shape " + shape.to_string());
  std::int64_t bytes = static_cast<std::int64_t>(sizeof(float));
  for (const std::int64_t d : dims) {
    if (__builtin_mul_overflow(bytes, d, &bytes)) {
      throw std::runtime_error("serialize: tensor size overflows for shape " + shape.to_string());
    }
  }
  const std::int64_t left = bytes_left(is);
  if (left >= 0 && bytes > left) {
    throw std::runtime_error("serialize: tensor data of shape " + shape.to_string() +
                             " exceeds the " + std::to_string(left) + " bytes left");
  }
  Tensor t(shape);
  is.read(reinterpret_cast<char*>(t.raw()),
          static_cast<std::streamsize>(t.numel() * static_cast<std::int64_t>(sizeof(float))));
  if (!is) throw std::runtime_error("serialize: truncated tensor data");
  return t;
}

void save_tensors(const std::string& path, const TensorMap& tensors) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_tensors: cannot open " + path);
  os.write(kMagic.data(), kMagic.size());
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(tensors.size()));
  for (const auto& [name, tensor] : tensors) {
    write_pod(os, static_cast<std::uint64_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_tensor(os, tensor);
  }
  if (!os) throw std::runtime_error("save_tensors: write failed for " + path);
}

TensorMap load_tensors(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_tensors: cannot open " + path);
  std::array<char, 4> magic{};
  is.read(magic.data(), magic.size());
  if (!is || magic != kMagic) throw std::runtime_error("load_tensors: bad magic in " + path);
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("load_tensors: unsupported version " + std::to_string(version));
  }
  const auto count = read_pod<std::uint64_t>(is);
  TensorMap out;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto name_len = read_pod<std::uint64_t>(is);
    const std::int64_t left = bytes_left(is);
    if (left < 0 || name_len > static_cast<std::uint64_t>(left)) {
      throw std::runtime_error("load_tensors: name length " + std::to_string(name_len) +
                               " exceeds the rest of " + path);
    }
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!is) throw std::runtime_error("load_tensors: truncated name");
    out.emplace(std::move(name), read_tensor(is));
  }
  return out;
}

}  // namespace sesr
