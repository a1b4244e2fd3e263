#include <string>

#include "data/dataset.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {
constexpr std::uint64_t kCorpusSeed = 3;
constexpr std::int64_t kTrainTimes = 64;  ///< 6-hourly steps per source
}  // namespace

orbit::data::MultiSourceDataset training_corpus() {
  return orbit::data::make_cmip6_corpus(16, 32, 4, 0, kTrainTimes, kCorpusSeed);
}

std::vector<orbit::train::Batch> eval_batches(std::int64_t batch, int count) {
  // Held out: the times right after the training range.
  const orbit::data::MultiSourceDataset held_out = orbit::data::make_cmip6_corpus(
      16, 32, 4, kTrainTimes, kTrainTimes + 4, kCorpusSeed);
  std::vector<orbit::train::Batch> out;
  std::vector<std::int64_t> idx;
  for (std::int64_t i = 0; i < batch * count; ++i) {
    idx.push_back(i * held_out.size() / (batch * count));
    if (static_cast<std::int64_t>(idx.size()) == batch) {
      out.push_back(orbit::data::collate(
          [&](std::int64_t j) { return held_out.at(j); }, idx));
      idx.clear();
    }
  }
  return out;
}

namespace {

bool is_step(const std::string& name) {
  return name.size() >= 5 && name.compare(name.size() - 5, 5, ".step") == 0;
}

}  // namespace

std::map<std::string, std::vector<SpanRec>> collect_spans(
    const orbit::trace::TraceSnapshot& snap) {
  using orbit::trace::EventKind;
  std::map<std::string, std::vector<SpanRec>> out;
  for (const orbit::trace::TraceTrack& track : snap.tracks) {
    std::vector<const orbit::trace::TraceEvent*> stack;  // open begins
    std::vector<SpanRec>& spans = out[track.label];
    for (const orbit::trace::TraceEvent& ev : track.events) {
      if (ev.kind == EventKind::kBegin) {
        stack.push_back(&ev);
      } else if (ev.kind == EventKind::kEnd && !stack.empty()) {
        const orbit::trace::TraceEvent* b = stack.back();
        stack.pop_back();
        SpanRec r;
        r.name = b->name;
        r.detail = b->detail;
        r.value = b->value;
        r.ms = static_cast<double>(ev.ts_ns - b->ts_ns) / 1e6;
        for (const auto* o : stack) r.in_step = r.in_step || is_step(o->name);
        spans.push_back(std::move(r));
      }
    }
  }
  return out;
}

std::vector<double> durations(const std::vector<SpanRec>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRec& s : spans) {
    if (s.name == name) out.push_back(s.ms);
  }
  return out;
}

double overhead_share(const std::vector<double>& plain_ms,
                      const std::vector<double>& traced_ms) {
  const double a = median(plain_ms);
  const double b = median(traced_ms);
  return a > 0.0 && b > 0.0 ? b / a - 1.0 : 0.0;
}

}  // namespace perfbench
