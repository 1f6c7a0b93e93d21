#include "common/bytes.hpp"

#include <bit>

namespace amuse {

namespace {
// Big-endian bytes of the low `N` bytes of `v`, appended in one insert so
// the buffer grows (and checks capacity) once per value, not once per byte.
template <std::size_t N>
void append_be(Bytes& buf, std::uint64_t v) {
  std::uint8_t out[N];
  buf.insert(buf.end(), out, store_be<N>(out, v));
}
}  // namespace

void Writer::u16(std::uint16_t v) { append_be<2>(buf_, v); }

void Writer::u32(std::uint32_t v) { append_be<4>(buf_, v); }

void Writer::u64(std::uint64_t v) { append_be<8>(buf_, v); }

void Writer::u48(std::uint64_t v) { append_be<6>(buf_, v); }

void Writer::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  u64(std::bit_cast<std::uint64_t>(v));
}

void Writer::blob16(BytesView v) {
  if (v.size() > 0xFFFF) {
    throw std::length_error("blob16: payload exceeds 64 KiB");
  }
  u16(static_cast<std::uint16_t>(v.size()));
  raw(v);
}

void Writer::blob32(BytesView v) {
  if (v.size() > 0xFFFFFFFFULL) {
    throw std::length_error("blob32: payload exceeds 4 GiB");
  }
  u32(static_cast<std::uint32_t>(v.size()));
  raw(v);
}

void Writer::str(std::string_view v) {
  blob16(BytesView(reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
}

void Writer::patch_u16(std::size_t pos, std::uint16_t v) {
  if (pos + 2 > buf_.size()) {
    throw std::out_of_range("patch_u16: position past end of buffer");
  }
  store_be<2>(buf_.data() + pos, v);
}

void Reader::truncated(std::size_t n) const {
  throw DecodeError("truncated buffer: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(pos_) +
                    ", have " + std::to_string(data_.size() - pos_));
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

Bytes Reader::blob16() {
  std::size_t n = u16();
  BytesView v = raw(n);
  return Bytes(v.begin(), v.end());
}

Bytes Reader::blob32() {
  std::size_t n = u32();
  BytesView v = raw(n);
  return Bytes(v.begin(), v.end());
}

std::string Reader::str() {
  std::size_t n = u16();
  BytesView v = raw(n);
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

SharedBytes::SharedBytes(Bytes bytes) {
  auto owned = std::make_shared<Bytes>(std::move(bytes));
  data_ = owned->data();
  size_ = owned->size();
  adopted_ = owned.get();
  owner_ = std::move(owned);
}

SharedBytes SharedBytes::copy_of(BytesView bytes) {
  SharedBytes out;
  if (bytes.empty()) return out;
  auto buf = std::make_shared_for_overwrite<std::uint8_t[]>(bytes.size());
  std::memcpy(buf.get(), bytes.data(), bytes.size());
  out.data_ = buf.get();
  out.size_ = bytes.size();
  out.owner_ = std::move(buf);
  return out;
}

SharedBytes SharedBytes::unowned(BytesView bytes) {
  SharedBytes out;
  out.data_ = bytes.data();
  out.size_ = bytes.size();
  return out;
}

SharedBytes SharedBytes::slice(BytesView part) const {
  SharedBytes out;
  out.owner_ = owner_;
  out.data_ = part.data();
  out.size_ = part.size();
  return out;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::string to_hex(BytesView b) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (std::uint8_t byte : b) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

}  // namespace amuse
