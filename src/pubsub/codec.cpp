#include "pubsub/codec.hpp"

namespace amuse {

Bytes encode_event(const Event& e) {
  return Bytes(e.body().begin(), e.body().end());
}

Event decode_event(BytesView b) {
  return Event::decode(SharedBytes::copy_of(b));
}

Event decode_event(SharedBytes b) { return Event::decode(std::move(b)); }

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
