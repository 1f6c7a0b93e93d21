// Events (Siena "notifications"): named, typed attribute sets.
//
// By convention every SMC event carries a string attribute "type" — e.g.
// "smc.member.new", "vitals.heartrate", "alarm.cardiac" — which obligation
// policies and simple subscribers key on, while content filters may
// constrain any attribute. Bus metadata (publisher id, publisher sequence
// number, timestamp, origin stamp) travels beside the attributes so the
// event bus can enforce per-sender ordering and exactly-once end to end —
// and so no content filter can ever match on it.
#pragma once

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

class Event {
 public:
  /// Attributes in ascending name order, names unique. One flat vector:
  /// an event carries a handful of attributes, so a binary search over
  /// contiguous pairs beats a node-per-attribute map on every lookup and
  /// costs one allocation to decode instead of one per attribute.
  using Attributes = std::vector<std::pair<std::string, Value>>;

  /// Writer reserve for one encoded event: a typical event plus its bus
  /// header fits, so encoding allocates once.
  static constexpr std::size_t kEncodeReserve = 256;

  Event() = default;
  /// Shorthand: Event("alarm.cardiac", {{"level", "high"}, {"hr", 188}}).
  explicit Event(std::string type,
                 std::initializer_list<std::pair<const std::string, Value>>
                     attrs = {});

  Event& set(std::string name, Value value);
  [[nodiscard]] bool has(std::string_view name) const;
  /// Returns nullptr when absent.
  [[nodiscard]] const Value* get(std::string_view name) const;
  /// Returns `fallback` when absent or not the requested type.
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback = 0) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback = 0.0) const;
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string fallback = "") const;

  /// The conventional "type" attribute ("" when unset or non-string). A
  /// view into the stored attribute — valid as long as the event is alive
  /// and the attribute unmodified; routing, authorisation and logging read
  /// it on every hop, so it must not allocate.
  [[nodiscard]] std::string_view type() const {
    const Value* v = get("type");
    if (!v || v->type() != ValueType::kString) return {};
    return v->as_string();
  }

  [[nodiscard]] const Attributes& attributes() const { return attrs_; }
  [[nodiscard]] std::size_t size() const { return attrs_.size(); }

  // Bus metadata (not attributes; set by the bus client on publish and by
  // the bus on routing). encode()/decode() carry publisher, sequence and
  // timestamp; the origin travels in the bus frame header (bus/messages).
  [[nodiscard]] ServiceId publisher() const { return publisher_; }
  [[nodiscard]] std::uint64_t publisher_seq() const { return publisher_seq_; }
  [[nodiscard]] TimePoint timestamp() const { return timestamp_; }
  [[nodiscard]] const Origin& origin() const { return origin_; }
  void set_publisher(ServiceId id) { publisher_ = id; }
  void set_publisher_seq(std::uint64_t seq) { publisher_seq_ = seq; }
  void set_timestamp(TimePoint t) { timestamp_ = t; }
  void set_origin(const Origin& origin) { origin_ = origin; }

  [[nodiscard]] bool operator==(const Event& other) const;

  /// Approximate wire size in bytes (used by cost models).
  [[nodiscard]] std::size_t payload_size() const;

  [[nodiscard]] std::string to_string() const;

  void encode(Writer& w) const;
  [[nodiscard]] static Event decode(Reader& r);

 private:
  /// Up to this many attributes, get() scans instead of binary-searching.
  static constexpr std::size_t kLinearLookup = 16;

  Attributes attrs_;
  ServiceId publisher_;
  std::uint64_t publisher_seq_ = 0;
  TimePoint timestamp_{};
  Origin origin_;
};

/// The delivery pipeline's handle on a published event. Once an event
/// enters the bus it is frozen: every layer (matcher, cost lambda, proxies,
/// local handlers) shares the same immutable instance instead of copying
/// the attribute map at each hop.
using EventPtr = std::shared_ptr<const Event>;

/// Freezes a mutable event into the shared-immutable form used by the
/// delivery pipeline.
[[nodiscard]] inline EventPtr freeze(Event e) {
  return std::make_shared<const Event>(std::move(e));
}

}  // namespace amuse
