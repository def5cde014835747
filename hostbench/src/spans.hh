/**
 * @file
 * In-memory host-time spans recorded around the benchmark's calls
 * into each layer of the program.
 *
 * A span has a name, a host start and end (steady clock, ns since the
 * recorder was built) and the span that was open when it began (its
 * parent). Spans are kept in memory and written out once, at the end
 * of the run, together with each name's self time: the span's
 * duration minus the time its child spans cover.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace hostbench
{

/** One recorded span. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; //!< -1 while open
    int parent = -1;         //!< index of the enclosing span, or -1

    std::int64_t durationNs() const { return endNs - startNs; }
};

/** Per-name totals over every span of that name. */
struct SpanTotals
{
    long count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

class SpanRecorder
{
  public:
    /** A disabled recorder records nothing and costs one branch. */
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; returns its id,
     *  or -1 when disabled. */
    int begin(const std::string &name);

    /** Close span `id` (a no-op for -1). @pre id is the innermost
     *  open span. */
    void end(int id);

    /** Closes its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const std::string &name)
            : rec_(rec), id_(rec.begin(name))
        {}
        ~Scope() { rec_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int id_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of span `id`: its duration minus its children's. */
    std::int64_t selfNs(std::size_t id) const;

    /** Count, total and self time per span name. */
    std::map<std::string, SpanTotals> totalsByName() const;

    /** Durations (ns) of every closed span named `name`. */
    flep::SampleStats durationsOf(const std::string &name) const;

    /** Write every span plus the per-name totals as JSON. */
    bool writeJson(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    /** Summed durations of each span's closed children. */
    std::vector<std::int64_t> childNs_;
    std::vector<int> open_;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
