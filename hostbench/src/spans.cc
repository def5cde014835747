#include "spans.hh"

#include <cstdio>
#include <stdexcept>

namespace hostbench
{

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, nowNs(), -1, parent});
    childNs_.push_back(0);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (id < 0)
        return;
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endNs = nowNs();
    if (s.parent >= 0)
        childNs_[static_cast<std::size_t>(s.parent)] += s.durationNs();
}

std::int64_t
SpanRecorder::selfNs(std::size_t id) const
{
    return spans_[id].durationNs() - childNs_[id];
}

std::map<std::string, SpanTotals>
SpanRecorder::totalsByName() const
{
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].endNs < 0)
            continue;
        SpanTotals &t = out[spans_[i].name];
        ++t.count;
        t.totalNs += spans_[i].durationNs();
        t.selfNs += selfNs(i);
    }
    return out;
}

flep::SampleStats
SpanRecorder::durationsOf(const std::string &name) const
{
    flep::SampleStats out;
    for (const Span &s : spans_) {
        if (s.endNs >= 0 && s.name == name)
            out.add(static_cast<double>(s.durationNs()));
    }
    return out;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"self_time\": {");
    bool first = true;
    for (const auto &[name, t] : totalsByName()) {
        std::fprintf(f,
                     "%s\n    \"%s\": {\"count\": %ld, \"total_ns\": "
                     "%lld, \"self_ns\": %lld}",
                     first ? "" : ",", name.c_str(), t.count,
                     static_cast<long long>(t.totalNs),
                     static_cast<long long>(t.selfNs));
        first = false;
    }
    std::fprintf(f, "\n  },\n  \"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n    {\"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %d}",
                     i == 0 ? "" : ",", s.name.c_str(),
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent);
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
}

} // namespace hostbench
