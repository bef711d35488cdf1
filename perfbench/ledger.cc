#include "ledger.hh"

#include <fstream>

namespace perfbench
{

int
Ledger::begin(const std::string &name, int parent, u64 request)
{
    double t = msSince(origin);
    std::lock_guard<std::mutex> lk(mu);
    spans.push_back({name, t, t, parent, request});
    return static_cast<int>(spans.size() - 1);
}

double
Ledger::end(int id)
{
    double t = msSince(origin);
    std::lock_guard<std::mutex> lk(mu);
    Span &s = spans[static_cast<size_t>(id)];
    s.endMs = t;
    return s.endMs - s.startMs;
}

std::map<std::string, double>
Ledger::selfMsByLayer(const std::set<u64> &requests) const
{
    std::lock_guard<std::mutex> lk(mu);
    // Children of one span run one after another on its thread, so
    // their durations add up to the covered part of the parent.
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.endMs - s.startMs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (!requests.count(s.request))
            continue;
        std::string layer = s.name.substr(0, s.name.find('.'));
        out[layer] += (s.endMs - s.startMs) - child[i];
    }
    return out;
}

double
Ledger::totalMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lk(mu);
    double sum = 0;
    for (const Span &s : spans)
        if (s.name == name)
            sum += s.endMs - s.startMs;
    return sum;
}

bool
Ledger::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu);
    std::ofstream os(path);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "{\"id\":" << i << ",\"name\":\"" << s.name
           << "\",\"start_ms\":" << s.startMs << ",\"end_ms\":" << s.endMs
           << ",\"parent\":" << s.parent << ",\"request\":" << s.request
           << "}\n";
    }
    return static_cast<bool>(os);
}

} // namespace perfbench
