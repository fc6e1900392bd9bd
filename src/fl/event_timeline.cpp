#include "fl/event_timeline.h"

#include <algorithm>

namespace fedsparse::fl {

void EventTimeline::seal() {
  std::sort(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.kind != b.kind) return static_cast<std::uint8_t>(a.kind) < static_cast<std::uint8_t>(b.kind);
    return a.client < b.client;
  });
}

}  // namespace fedsparse::fl
