#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>
#include <utility>

#include "exp/json.hh"

namespace hostbench
{

namespace
{

/** Index of the innermost span open on this thread (-1: none). */
thread_local int tlsOpen = -1;
thread_local int tlsThread = -1;
std::atomic<int> nextThread{0};

int
threadIndex()
{
    if (tlsThread < 0)
        tlsThread = nextThread.fetch_add(1);
    return tlsThread;
}

} // namespace

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::open(const std::string &name, int point, int parent)
{
    SpanRecord s;
    s.name = name;
    s.parent = parent == -2 ? tlsOpen : parent;
    s.thread = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    s.point = point == -1 && s.parent >= 0
                  ? spans_[static_cast<std::size_t>(s.parent)].point
                  : point;
    s.start = now();
    spans_.push_back(std::move(s));
    // A span opened with an explicit parent from another thread still
    // nests the calls this thread makes inside it.
    int id = static_cast<int>(spans_.size()) - 1;
    tlsOpen = id;
    return id;
}

void
SpanRecorder::close(int id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    SpanRecord &s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    // Spans close in LIFO order per thread; restore the enclosing one
    // if it was opened on this thread, else leave the thread empty.
    tlsOpen = -1;
    for (int p = s.parent; p >= 0;
         p = spans_[static_cast<std::size_t>(p)].parent) {
        if (spans_[static_cast<std::size_t>(p)].thread == s.thread) {
            tlsOpen = p;
            break;
        }
    }
}

std::vector<SpanRecord>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
selfTimeByLayer(const std::vector<SpanRecord> &spans, int root)
{
    std::size_t n = spans.size();
    // Parents open before their children, so one forward pass decides
    // subtree membership and collects each span's children.
    std::vector<bool> in(n);
    std::vector<std::vector<std::size_t>> kids(n);
    for (std::size_t i = 0; i < n; ++i) {
        int p = spans[i].parent;
        in[i] = static_cast<int>(i) == root ||
                (p >= 0 && in[static_cast<std::size_t>(p)]);
        if (p >= 0)
            kids[static_cast<std::size_t>(p)].push_back(i);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < n; ++i) {
        if (!in[i])
            continue;
        const SpanRecord &s = spans[i];
        // Union of the child intervals, clipped to this span: parallel
        // children (pool jobs under a phase span) overlap.
        std::vector<std::pair<double, double>> iv;
        for (std::size_t k : kids[i])
            iv.emplace_back(std::max(s.start, spans[k].start),
                            std::min(s.end, spans[k].end));
        std::sort(iv.begin(), iv.end());
        double covered = 0, lo = 0, hi = -1;
        for (const auto &[a, b] : iv) {
            if (b <= a)
                continue;
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        self[s.layer()] += s.seconds() - covered;
    }
    return self;
}

std::map<std::string, double>
secondsByName(const std::vector<SpanRecord> &spans)
{
    std::map<std::string, double> out;
    for (const SpanRecord &s : spans)
        out[s.name] += s.seconds();
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans,
                 const std::map<int, std::string> &pointLabels)
{
    using rockcress::Json;
    Json events = Json::array();
    std::set<int> threads;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        threads.insert(s.thread);
        Json e = Json::object();
        e["name"] = s.name;
        e["cat"] = s.layer();
        e["ph"] = "X";
        e["ts"] = s.start * 1e6;
        e["dur"] = s.seconds() * 1e6;
        e["pid"] = std::uint64_t{1};
        e["tid"] = static_cast<std::uint64_t>(s.thread);
        Json args = Json::object();
        args["span"] = static_cast<std::uint64_t>(i);
        if (s.parent >= 0)
            args["parent"] = static_cast<std::uint64_t>(s.parent);
        if (s.point >= 0) {
            args["point"] = static_cast<std::uint64_t>(s.point);
            auto it = pointLabels.find(s.point);
            if (it != pointLabels.end())
                args["label"] = it->second;
        }
        e["args"] = std::move(args);
        events.push(std::move(e));
    }
    for (int t : threads) {
        Json m = Json::object();
        m["name"] = "thread_name";
        m["ph"] = "M";
        m["pid"] = std::uint64_t{1};
        m["tid"] = static_cast<std::uint64_t>(t);
        Json args = Json::object();
        args["name"] = t == 0 ? std::string("main")
                              : "thread " + std::to_string(t);
        m["args"] = std::move(args);
        events.push(std::move(m));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out.flush());
}

} // namespace hostbench
