#include "pubsub/event.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>
#include <utility>

namespace amuse {
namespace {

// The body of an event with no metadata and no attributes.
constexpr std::array<std::uint8_t, Event::kHeaderSize> kEmptyBody{};

// Offset of the attribute count in the header.
constexpr std::size_t kCountAt = Event::kHeaderSize - 2;

// Attribute names are a few bytes long: compared in a plain loop instead
// of through a memcmp call.
bool same_name(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// Byte order (unsigned), as std::string's operator<.
bool name_less(std::string_view a, std::string_view b) {
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto x = static_cast<unsigned char>(a[i]);
    auto y = static_cast<unsigned char>(b[i]);
    if (x != y) return x < y;
  }
  return a.size() < b.size();
}

[[noreturn, gnu::noinline]] void truncated(std::size_t need, std::size_t at,
                                           std::size_t have) {
  throw DecodeError("truncated event: need " + std::to_string(need) +
                    " bytes at offset " + std::to_string(at) + ", have " +
                    std::to_string(have));
}

using Entry = std::pair<std::string_view, ValueView>;

// Sorts `attrs` by name, stably, and keeps one attribute per name: the
// first of a run of equal names when `keep_last` is false, else the last.
// Returns how many remain at the front. Insertion sort: the lists are short.
std::size_t sort_unique(std::span<Entry> attrs, bool keep_last) {
  for (std::size_t i = 1; i < attrs.size(); ++i) {
    Entry e = attrs[i];
    std::size_t j = i;
    for (; j > 0 && e.first < attrs[j - 1].first; --j) attrs[j] = attrs[j - 1];
    attrs[j] = e;
  }
  std::size_t n = 0;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (n > 0 && attrs[n - 1].first == attrs[i].first) {
      if (keep_last) attrs[n - 1] = attrs[i];
      continue;
    }
    attrs[n++] = attrs[i];
  }
  return n;
}

// Room for a few attributes more than an event is built with, so the usual
// set()s after construction splice in place without growing the buffer.
constexpr std::size_t kSetSlack = 64;

// The canonical body: `header` (publisher, sequence, timestamp) and the
// attributes, which must be in strictly ascending name order.
SharedBytes build(BytesView header, std::span<const Entry> attrs) {
  std::size_t size = header.size() + 2;
  for (const auto& [name, value] : attrs) size += 2 + name.size() + 9;
  Writer w(size + kSetSlack);
  w.raw(header);
  w.u16(static_cast<std::uint16_t>(attrs.size()));
  for (const auto& [name, value] : attrs) {
    w.str(name);
    value.encode(w);
  }
  return SharedBytes(std::move(w).take());
}

// Bytes of `v`'s encoding after its tag.
std::size_t value_size(ValueView v) {
  switch (v.type()) {
    case ValueType::kInt:
    case ValueType::kDouble: return 8;
    case ValueType::kBool: return 1;
    case ValueType::kString: return 2 + v.as_string().size();
    case ValueType::kBytes: return 4 + v.as_bytes().size();
  }
  return 0;
}

// Writes `v`'s tag and encoding (as ValueView::encode) at `p`.
void put_value(std::uint8_t* p, ValueView v) {
  *p++ = static_cast<std::uint8_t>(v.type());
  switch (v.type()) {
    case ValueType::kInt:
      store_be<8>(p, static_cast<std::uint64_t>(v.as_int()));
      break;
    case ValueType::kDouble:
      store_be<8>(p, std::bit_cast<std::uint64_t>(v.as_double()));
      break;
    case ValueType::kBool:
      *p = v.as_bool() ? 1 : 0;
      break;
    case ValueType::kString:
      p = store_be<2>(p, v.as_string().size());
      std::copy_n(v.as_string().data(), v.as_string().size(), p);
      break;
    case ValueType::kBytes:
      p = store_be<4>(p, v.as_bytes().size());
      std::copy_n(v.as_bytes().data(), v.as_bytes().size(), p);
      break;
  }
}

}  // namespace

Event::Event() : body_(SharedBytes::unowned(kEmptyBody)) {}

Event::Event(Event&& other) noexcept
    : body_(std::exchange(other.body_, SharedBytes::unowned(kEmptyBody))),
      count_(std::exchange(other.count_, 0)),
      inline_(other.inline_),
      spill_(std::move(other.spill_)),
      origin_(other.origin_) {}

Event& Event::operator=(Event&& other) noexcept {
  if (this != &other) {
    body_ = std::exchange(other.body_, SharedBytes::unowned(kEmptyBody));
    count_ = std::exchange(other.count_, 0);
    inline_ = other.inline_;
    spill_ = std::move(other.spill_);
    origin_ = other.origin_;
  }
  return *this;
}

Event::Event(std::string_view type,
             std::initializer_list<std::pair<const std::string, Value>> attrs) {
  // As a map built from the list: the first of repeated names is kept, and
  // the type is set over whatever the list said.
  std::array<Entry, 16> small;
  std::vector<Entry> large;
  std::span<Entry> sorted(small);
  if (attrs.size() + 1 > small.size()) {
    large.resize(attrs.size() + 1);
    sorted = large;
  }
  std::size_t n = 0;
  for (const auto& [name, value] : attrs) {
    if (name != "type") sorted[n++] = {name, value};
  }
  sorted[n++] = {"type", ValueView(type)};
  n = sort_unique(sorted.first(n), /*keep_last=*/false);
  body_ = build(BytesView(kEmptyBody).first(kCountAt), sorted.first(n));
  index();
}

Event Event::decode(SharedBytes body) {
  Event e;
  e.body_ = std::move(body);
  if (!e.index()) e.canonicalise();
  return e;
}

bool Event::index() {
  // One pass over the bytes with a bounds check per field: this runs for
  // every event received, so it reads in place instead of through a Reader.
  const std::uint8_t* const base = body_.data();
  const std::size_t size = body_.size();
  std::size_t pos = 0;
  auto need = [&](std::size_t k) {
    if (k > size - pos) [[unlikely]] truncated(k, pos, size - pos);
  };
  need(kHeaderSize);
  const auto n = static_cast<std::uint16_t>(load_be<2>(base + kCountAt));
  pos = kHeaderSize;
  spill_.clear();
  Slot* out = inline_.data();
  if (n > kInlineSlots) {
    // Every attribute takes at least 4 bytes (u16 name length, value tag,
    // one value byte), so a forged count cannot size the index past what
    // the body could hold; a count past that fails below as truncation.
    spill_.resize(std::min<std::size_t>(n, (size - pos) / 4));
    out = spill_.data();
  }
  bool canonical = true;
  std::string_view prev;
  for (std::uint16_t i = 0; i < n; ++i) {
    Slot s;
    need(2);
    s.name_len = static_cast<std::uint16_t>(load_be<2>(base + pos));
    pos += 2;
    need(std::size_t{s.name_len} + 1);
    s.name = static_cast<std::uint32_t>(pos);
    std::string_view name(reinterpret_cast<const char*>(base + pos), s.name_len);
    pos += s.name_len;
    const std::uint8_t tag = base[pos++];
    std::size_t len = 0;
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kInt:
      case ValueType::kDouble:
        len = 8;
        break;
      case ValueType::kBool:
        need(1);
        if (base[pos] > 1) canonical = false;
        len = 1;
        break;
      case ValueType::kString:
        need(2);
        len = 2 + load_be<2>(base + pos);
        break;
      case ValueType::kBytes:
        need(4);
        len = 4 + load_be<4>(base + pos);
        break;
      default:
        throw DecodeError("unknown value type tag " + std::to_string(tag));
    }
    need(len);
    pos += len;
    s.tag = static_cast<ValueType>(tag);
    if (i > 0 && !name_less(prev, name)) canonical = false;
    prev = name;
    out[i] = s;
  }
  if (pos != size) throw DecodeError("trailing bytes after event");
  count_ = n;
  return canonical;
}

void Event::canonicalise() {
  // Sorted by name with the last of repeated names kept — what inserting
  // the attributes one by one in wire order would leave.
  std::vector<Entry> attrs;
  attrs.reserve(count_);
  for (Attribute a : attributes()) attrs.emplace_back(a.name, a.value);
  std::size_t n = sort_unique(attrs, /*keep_last=*/true);
  // The views point into the old body, which stays alive until rebuilt.
  SharedBytes old = body_;
  body_ = build(old.view().first(kCountAt), std::span(attrs).first(n));
  index();
}

ValueView Event::value_of(const Slot& s) const {
  const std::uint8_t* p = body_.data() + s.name + s.name_len + 1;
  switch (s.tag) {
    case ValueType::kInt:
      return ValueView(static_cast<std::int64_t>(load_be<8>(p)));
    case ValueType::kDouble:
      return ValueView(std::bit_cast<double>(load_be<8>(p)));
    case ValueType::kBool:
      return ValueView(*p != 0);
    case ValueType::kString:
      return ValueView(std::string_view(reinterpret_cast<const char*>(p + 2),
                                        load_be<2>(p)));
    case ValueType::kBytes:
      return ValueView(BytesView(p + 4, load_be<4>(p)));
  }
  return ValueView(std::int64_t{0});
}

const Event::Slot* Event::find(std::string_view name) const {
  // Names are few and short: a scan comparing lengths first costs one
  // integer compare per miss.
  const Slot* s = slots();
  const Slot* end = s + count_;
  for (; s != end; ++s) {
    if (same_name(name_of(*s), name)) return s;
  }
  return nullptr;
}

std::optional<ValueView> Event::get(std::string_view name) const {
  const Slot* s = find(name);
  if (s == nullptr) return std::nullopt;
  return value_of(*s);
}

std::string_view Event::type() const {
  const Slot* s = find("type");
  if (s == nullptr || s->tag != ValueType::kString) return {};
  return value_of(*s).as_string();
}

std::int64_t Event::get_int(std::string_view name, std::int64_t fallback) const {
  const Slot* s = find(name);
  if (s == nullptr || s->tag != ValueType::kInt) return fallback;
  return value_of(*s).as_int();
}

double Event::get_double(std::string_view name, double fallback) const {
  std::optional<ValueView> v = get(name);
  if (!v || !v->is_numeric()) return fallback;
  return v->as_double();
}

std::string Event::get_string(std::string_view name,
                              std::string fallback) const {
  const Slot* s = find(name);
  if (s == nullptr || s->tag != ValueType::kString) return fallback;
  return std::string(value_of(*s).as_string());
}

Event& Event::set(std::string_view name, ValueView value) {
  // Splices in the tagged value, replacing the old one, or the whole
  // attribute in front of the first name after it.
  Slot* slot = slots();
  Slot* end = slot + count_;
  while (slot != end && name_less(name_of(*slot), name)) ++slot;
  const bool replace = slot != end && same_name(name_of(*slot), name);
  std::size_t from = body_.size();
  std::size_t to = from;
  if (replace) {
    from = slot->name + slot->name_len;
    to = slot + 1 != end ? (slot + 1)->name - 2 : body_.size();
  } else if (slot != end) {
    from = to = slot->name - 2;
  }
  const std::size_t name_bytes = replace ? 0 : 2 + name.size();
  const std::size_t size = name_bytes + 1 + value_size(value);
  // Encoded before the edit: `name` and `value` may view this very body,
  // which a copy-on-write edit releases.
  std::array<std::uint8_t, 64> small;
  Bytes large;
  std::uint8_t* enc = small.data();
  if (size > small.size()) {
    large.resize(size);
    enc = large.data();
  }
  if (!replace) {
    store_be<2>(enc, name.size());
    std::copy_n(name.data(), name.size(), enc + 2);
  }
  put_value(enc + name_bytes, value);
  if (to - from == size) {
    // A value of the same size: overwritten in place, offsets unchanged.
    body_.edit([&](Bytes& b) { std::memcpy(b.data() + from, enc, size); });
    slot->tag = value.type();
    return *this;
  }
  body_.edit([&](Bytes& b) {
    auto at = b.begin() + static_cast<std::ptrdiff_t>(from);
    at = b.erase(at, b.begin() + static_cast<std::ptrdiff_t>(to));
    b.insert(at, enc, enc + size);
    if (!replace) store_be<2>(b.data() + kCountAt, count_ + 1);
  });
  index();
  return *this;
}

bool Event::operator==(const Event& other) const {
  if (count_ != other.count_) return false;
  const Slot* a = slots();
  const Slot* b = other.slots();
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (name_of(a[i]) != other.name_of(b[i]) ||
        !value_of(a[i]).equals(other.value_of(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Event::to_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : attributes()) {
    if (!first) out += ", ";
    first = false;
    out += name;
    out += "=";
    out += value.to_string();
  }
  out += "}";
  return out;
}

void Origin::encode(Writer& w) const {
  w.u48(cell.raw());
  w.u64(epoch);
  w.u64(seq);
}

Origin Origin::decode(Reader& r) {
  Origin o;
  o.cell = ServiceId(r.u48());
  o.epoch = r.u64();
  o.seq = r.u64();
  return o;
}

}  // namespace amuse
