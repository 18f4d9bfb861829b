/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span is a
 * named host-time interval around one call into a simulator layer
 * ("machine.build", "sim.run", "exp.cache_key", ...) with a link to
 * the span that caused it and the id of the (bench, config) point it
 * belongs to. Spans stay in memory until the run ends; then they are
 * reduced to per-layer self times and written as Chrome trace-event
 * JSON, loadable in ui.perfetto.dev.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench
{

struct SpanRecord
{
    std::string name;  ///< "<layer>.<call>"; the layer is the prefix.
    double start = 0;  ///< Seconds since the recorder's epoch.
    double end = 0;
    int parent = -1;   ///< Index of the causing span; -1 for a root.
    int point = -1;    ///< Point id shared by all spans of one point.
    int thread = 0;    ///< Small per-thread index (trace track).

    double seconds() const { return end - start; }
    std::string layer() const { return name.substr(0, name.find('.')); }
};

/** Thread-safe store of spans; indices stay valid for its lifetime. */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /**
     * Open a span. `parent` -2 means the span open on this thread (so
     * nested calls link up); a point of -1 inherits the parent's.
     * @return The span's index, to pass to close().
     */
    int open(const std::string &name, int point, int parent);
    void close(int id);

    /** Copy of every span recorded so far. */
    std::vector<SpanRecord> spans() const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;  ///< Guarded by mutex_.
};

/** RAII span; a null recorder makes it a no-op. */
class Span
{
  public:
    Span(SpanRecorder *rec, const std::string &name, int point = -1,
         int parent = -2)
        : rec_(rec), id_(rec ? rec->open(name, point, parent) : -1)
    {}
    ~Span()
    {
        if (rec_)
            rec_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *rec_;
    int id_;
};

/**
 * Self time (duration minus the union of its children's intervals)
 * summed per layer, over span `root` and the spans descending from it.
 */
std::map<std::string, double> selfTimeByLayer(
    const std::vector<SpanRecord> &spans, int root);

/** Sum of span durations per full span name. */
std::map<std::string, double> secondsByName(
    const std::vector<SpanRecord> &spans);

/**
 * Write spans as Chrome trace-event JSON ("X" complete events, one
 * track per thread; args carry the point id, its label and the parent
 * span). @return false if the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans,
                      const std::map<int, std::string> &pointLabels);

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
