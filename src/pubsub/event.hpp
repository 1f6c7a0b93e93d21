// Events (Siena "notifications"): named, typed attribute sets.
//
// By convention every SMC event carries a string attribute "type" — e.g.
// "smc.member.new", "vitals.heartrate", "alarm.cardiac" — which obligation
// policies and simple subscribers key on, while content filters may
// constrain any attribute. Bus metadata (publisher id, publisher sequence
// number, timestamp, origin stamp) travels beside the attributes so the
// event bus can enforce per-sender ordering and exactly-once end to end —
// and so no content filter can ever match on it. An Event is its encoding:
// one shared buffer of bytes plus an index into it (see class Event).
#pragma once

#include <array>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/service_id.hpp"
#include "pubsub/value.hpp"
#include "sim/time.hpp"

namespace amuse {

/// The one origin stamp (DESIGN.md §11, §13): the cell whose bus first
/// routed the event, that core's promotion epoch, and its routing sequence.
/// Stamped exactly once, by the origin cell's bus, while federation or HA is
/// on; immutable afterwards. Buses drop loops and multi-path duplicates on
/// it, members drop failover re-deliveries on it — always on the full key:
/// two cells (or two split-brain cores) count sequences independently.
struct Origin {
  ServiceId cell;  ///< nil = not stamped
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;

  [[nodiscard]] bool stamped() const { return !cell.is_nil(); }
  friend bool operator==(const Origin&, const Origin&) = default;

  /// u48 cell, u64 epoch, u64 seq.
  static constexpr std::size_t kWireSize = 22;
  void encode(Writer& w) const;
  [[nodiscard]] static Origin decode(Reader& r);
};

/// One event: an immutable shared buffer holding its canonical encoding
/// (the encode_event() bytes), plus a small inline index giving each
/// attribute's name and value offsets and its type tag. Decoding validates
/// the bytes and builds the index; reading an attribute yields a ValueView
/// into the buffer. Copies share the buffer, so the core forwards the bytes
/// a publisher sent and every link of a fan-out queues them by reference
/// (DESIGN.md §7).
///
/// The canonical encoding: u48 publisher, u64 publisher sequence, i64
/// timestamp, u16 n, then n attributes in strictly ascending name order,
/// each u16 name length + name, u8 value tag, value (i64 | f64 | one byte
/// 0/1 | u16 length + text | u32 length + bytes). A body that is not
/// canonical (names out of order or repeated, a bool byte other than 0 or
/// 1) is re-serialised canonically when decoded; the last of repeated
/// names wins.
class Event {
 public:
  /// The fixed header before the attributes: publisher, sequence,
  /// timestamp, attribute count.
  static constexpr std::size_t kHeaderSize = 6 + 8 + 8 + 2;

  Event();
  Event(const Event&) = default;
  Event& operator=(const Event&) = default;
  /// Moving leaves the source an empty event.
  Event(Event&& other) noexcept;
  Event& operator=(Event&& other) noexcept;
  /// Shorthand: Event("alarm.cardiac", {{"level", "high"}, {"hr", 188}}).
  /// The first of repeated names is kept; `type` overrides a "type" entry.
  explicit Event(std::string_view type,
                 std::initializer_list<std::pair<const std::string, Value>>
                     attrs = {});

  /// Sets one attribute. Splices the buffer in place when this event is
  /// its only holder; copies it first when it is shared (copy-on-write).
  Event& set(std::string_view name, ValueView value);
  Event& set(std::string_view name, const Value& value) {
    return set(name, ValueView(value));
  }
  [[nodiscard]] bool has(std::string_view name) const {
    return find(name) != nullptr;
  }
  /// A view into this event's buffer; nullopt when absent.
  [[nodiscard]] std::optional<ValueView> get(std::string_view name) const;
  /// Returns `fallback` when absent or not the requested type.
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback = 0) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback = 0.0) const;
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback = "") const;

  /// The conventional "type" attribute ("" when unset or non-string). A
  /// view into the buffer: routing, authorisation and logging read it on
  /// every hop, so it must not allocate.
  [[nodiscard]] std::string_view type() const;

  /// One attribute, as views into the buffer.
  struct Attribute {
    std::string_view name;
    ValueView value;
  };
  class Attributes;
  /// The attributes in ascending name order.
  [[nodiscard]] Attributes attributes() const;
  [[nodiscard]] std::size_t size() const { return count_; }

  // Bus metadata (not attributes, so no content filter can match on it):
  // publisher, sequence and timestamp are the body's header, set by the
  // bus client on publish and by the bus on routing; the origin travels in
  // the bus frame header (bus/messages) and is held beside the body.
  [[nodiscard]] ServiceId publisher() const {
    return ServiceId(read_be<6>(0));
  }
  [[nodiscard]] std::uint64_t publisher_seq() const { return read_be<8>(6); }
  [[nodiscard]] TimePoint timestamp() const {
    return TimePoint(Duration(static_cast<std::int64_t>(read_be<8>(14))));
  }
  [[nodiscard]] const Origin& origin() const { return origin_; }
  void set_publisher(ServiceId id) { write_be<6>(0, id.raw()); }
  void set_publisher_seq(std::uint64_t seq) { write_be<8>(6, seq); }
  void set_timestamp(TimePoint t) {
    write_be<8>(14, static_cast<std::uint64_t>(t.time_since_epoch().count()));
  }
  void set_origin(const Origin& origin) { origin_ = origin; }

  /// Same attributes with equal values (numerics compare across int and
  /// double, as Value::equals); metadata is not compared.
  [[nodiscard]] bool operator==(const Event& other) const;

  /// Wire size of the body in bytes (used by cost models).
  [[nodiscard]] std::size_t payload_size() const { return body_.size(); }

  [[nodiscard]] std::string to_string() const;

  /// The canonical encoding, shared: what every link of a fan-out queues.
  [[nodiscard]] const SharedBytes& body() const { return body_; }
  void encode(Writer& w) const { w.raw(body_.view()); }
  /// Validates `body` (exactly one encoded event) and indexes it in place,
  /// sharing its buffer. Throws DecodeError on malformed input.
  [[nodiscard]] static Event decode(SharedBytes body);

 private:
  /// One attribute's place in the body: its name's offset and length and
  /// its value tag; the value follows the tag.
  struct Slot {
    std::uint32_t name = 0;
    std::uint16_t name_len = 0;
    ValueType tag = ValueType::kInt;
  };
  /// Attributes indexed without a heap allocation; a larger event keeps
  /// its whole index in `spill_`.
  static constexpr std::size_t kInlineSlots = 12;

  [[nodiscard]] const Slot* slots() const {
    return count_ <= kInlineSlots ? inline_.data() : spill_.data();
  }
  [[nodiscard]] Slot* slots() {
    return count_ <= kInlineSlots ? inline_.data() : spill_.data();
  }
  [[nodiscard]] std::string_view name_of(const Slot& s) const {
    return {reinterpret_cast<const char*>(body_.data()) + s.name, s.name_len};
  }
  [[nodiscard]] ValueView value_of(const Slot& s) const;
  [[nodiscard]] const Slot* find(std::string_view name) const;
  template <std::size_t N>
  [[nodiscard]] std::uint64_t read_be(std::size_t at) const {
    return load_be<N>(body_.data() + at);
  }
  template <std::size_t N>
  void write_be(std::size_t at, std::uint64_t v) {
    if (read_be<N>(at) == v) return;  // unchanged: keep sharing the buffer
    body_.edit([&](Bytes& b) { store_be<N>(b.data() + at, v); });
  }
  /// Scans body_, rebuilding the index. False when the body is valid but
  /// not canonical (the index is then unusable); throws when malformed.
  bool index();
  /// Replaces body_ with the canonical encoding of its own attributes.
  void canonicalise();

  SharedBytes body_;
  std::uint32_t count_ = 0;
  std::array<Slot, kInlineSlots> inline_{};
  std::vector<Slot> spill_;
  Origin origin_;
};

class Event::Attributes {
 public:
  class iterator {
   public:
    using value_type = Attribute;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const Event* e, const Slot* s) : e_(e), s_(s) {}
    Attribute operator*() const { return {e_->name_of(*s_), e_->value_of(*s_)}; }
    iterator& operator++() {
      ++s_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++s_;
      return old;
    }
    bool operator==(const iterator& o) const { return s_ == o.s_; }

   private:
    const Event* e_ = nullptr;
    const Slot* s_ = nullptr;
  };
  explicit Attributes(const Event& e) : e_(&e) {}
  [[nodiscard]] iterator begin() const { return {e_, e_->slots()}; }
  [[nodiscard]] iterator end() const {
    return {e_, e_->slots() + e_->count_};
  }
  [[nodiscard]] std::size_t size() const { return e_->count_; }

 private:
  const Event* e_;
};

inline Event::Attributes Event::attributes() const { return Attributes(*this); }

}  // namespace amuse
