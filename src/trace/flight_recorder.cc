#include "trace/flight_recorder.h"

#include <algorithm>

namespace groupcast::trace {

void FlightFrame::merge(const FlightFrame& other) {
  for (std::size_t i = 0; i < kCounterIds; ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < kHistogramIds; ++i) {
    samples[i] += other.samples[i];
  }
}

void FlightFrame::add(const CounterRegistry& counters,
                      const HistogramRegistry& histograms) {
  for (std::size_t i = 0; i < kCounterIds; ++i) {
    this->counters[i] += counters.total(static_cast<CounterId>(i));
  }
  for (std::size_t i = 0; i < kHistogramIds; ++i) {
    samples[i] += histograms.of(static_cast<HistogramId>(i)).count;
  }
}

void FlightRecorder::enable(std::size_t capacity) {
  frames_.clear();
  capacity_ = std::max<std::size_t>(1, capacity);
  enabled_ = true;
}

void FlightRecorder::capture(const FlightFrame& frame) {
  if (!enabled_) return;
  if (!frames_.empty() && frames_.back().t_us == frame.t_us) {
    frames_.back() = frame;
    return;
  }
  if (frames_.size() == capacity_) frames_.pop_front();
  frames_.push_back(frame);
}

std::vector<FlightFrame> FlightRecorder::frames() const {
  return std::vector<FlightFrame>(frames_.begin(), frames_.end());
}

void FlightRecorder::merge(const std::vector<FlightFrame>& timeline) {
  if (!enabled_) return;
  std::vector<FlightFrame> merged(frames_.begin(), frames_.end());
  merge_timelines(merged, timeline);
  if (merged.size() > capacity_) {
    merged.erase(merged.begin(),
                 merged.begin() +
                     static_cast<std::ptrdiff_t>(merged.size() - capacity_));
  }
  frames_.assign(merged.begin(), merged.end());
}

namespace {
thread_local FlightRecorder* tl_active_recorder = nullptr;
}  // namespace

FlightRecorder& flight_recorder() {
  if (tl_active_recorder != nullptr) return *tl_active_recorder;
  thread_local FlightRecorder instance;
  return instance;
}

ScopedFlightRecorder::ScopedFlightRecorder(FlightRecorder& recorder)
    : previous_(tl_active_recorder) {
  tl_active_recorder = &recorder;
}

ScopedFlightRecorder::~ScopedFlightRecorder() {
  tl_active_recorder = previous_;
}

void merge_timelines(std::vector<FlightFrame>& into,
                     const std::vector<FlightFrame>& other) {
  std::vector<FlightFrame> merged;
  merged.reserve(into.size() + other.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < into.size() || b < other.size()) {
    if (b >= other.size() ||
        (a < into.size() && into[a].t_us < other[b].t_us)) {
      merged.push_back(into[a++]);
    } else if (a >= into.size() || other[b].t_us < into[a].t_us) {
      merged.push_back(other[b++]);
    } else {
      FlightFrame frame = into[a++];
      frame.merge(other[b++]);
      merged.push_back(frame);
    }
  }
  into = std::move(merged);
}

}  // namespace groupcast::trace
