#include "pubsub/codec.hpp"

namespace amuse {

Bytes encode_event(const Event& e) {
  Writer w(Event::kEncodeReserve);
  e.encode(w);
  return std::move(w).take();
}

std::shared_ptr<const Bytes> encode_event_shared(const Event& e) {
  return std::make_shared<const Bytes>(encode_event(e));
}

Event decode_event(BytesView b) {
  Reader r(b);
  Event e = Event::decode(r);
  if (!r.done()) throw DecodeError("trailing bytes after event");
  return e;
}

Bytes encode_filter(const Filter& f) {
  Writer w;
  f.encode(w);
  return std::move(w).take();
}

Filter decode_filter(BytesView b) {
  Reader r(b);
  Filter f = Filter::decode(r);
  if (!r.done()) throw DecodeError("trailing bytes after filter");
  return f;
}

}  // namespace amuse
