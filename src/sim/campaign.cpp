#include "sim/campaign.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace delorean
{

std::string
campaignReportPath()
{
    if (const char *env = std::getenv("DELOREAN_BENCH_JSON"))
        if (*env)
            return env;
    return "BENCH_campaign.json";
}

namespace
{

/**
 * Parse the top level of `{ "key": <value>, ... }` into (key, raw
 * value text) pairs, preserving order. Values are captured verbatim
 * (objects by brace matching, respecting strings). Returns false on
 * anything unexpected, in which case the caller starts fresh.
 */
bool
parseTopLevel(const std::string &text,
              std::vector<std::pair<std::string, std::string>> &out)
{
    std::size_t i = 0;
    const auto skipWs = [&] {
        while (i < text.size()
               && std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
    };

    skipWs();
    if (i >= text.size() || text[i] != '{')
        return false;
    ++i;
    for (;;) {
        skipWs();
        if (i >= text.size())
            return false;
        if (text[i] == '}')
            return true;
        if (text[i] != '"')
            return false;
        ++i;
        std::string key;
        while (i < text.size() && text[i] != '"') {
            if (text[i] == '\\')
                return false; // escaped keys: not ours, start fresh
            key += text[i++];
        }
        if (i >= text.size())
            return false;
        ++i; // closing quote
        skipWs();
        if (i >= text.size() || text[i] != ':')
            return false;
        ++i;
        skipWs();
        if (i >= text.size() || text[i] != '{')
            return false;
        const std::size_t start = i;
        int depth = 0;
        bool in_string = false;
        for (; i < text.size(); ++i) {
            const char c = text[i];
            if (in_string) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    in_string = false;
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                ++depth;
            } else if (c == '}') {
                if (--depth == 0) {
                    ++i;
                    break;
                }
            }
        }
        if (depth != 0)
            return false;
        out.emplace_back(key, text.substr(start, i - start));
        skipWs();
        if (i < text.size() && text[i] == ',')
            ++i;
    }
}

std::string
formatEntry(const CampaignReport &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\n"
                  "    \"jobs\": %u,\n"
                  "    \"job_count\": %" PRIu64 ",\n"
                  "    \"wall_seconds\": %.3f,\n"
                  "    \"sim_cycles\": %" PRIu64 ",\n"
                  "    \"sim_instrs\": %" PRIu64 ",\n"
                  "    \"sim_cycles_per_sec\": %.0f,\n"
                  "    \"sim_instrs_per_sec\": %.0f,\n"
                  "    \"cache_hits\": %" PRIu64 ",\n"
                  "    \"cache_misses\": %" PRIu64 "\n"
                  "  }",
                  r.jobs, r.jobCount, r.wallSeconds, r.simCycles,
                  r.simInstrs, r.simCyclesPerSecond(),
                  r.simInstrsPerSecond(), r.cacheHits, r.cacheMisses);
    return buf;
}

} // namespace

void
writeCampaignReport(const CampaignReport &report, const std::string &path)
{
    std::vector<std::pair<std::string, std::string>> entries;
    {
        std::ifstream in(path);
        if (in) {
            std::ostringstream ss;
            ss << in.rdbuf();
            std::vector<std::pair<std::string, std::string>> parsed;
            if (parseTopLevel(ss.str(), parsed))
                entries = std::move(parsed);
        }
    }

    const std::string value = formatEntry(report);
    bool replaced = false;
    for (auto &[key, raw] : entries) {
        if (key == report.harness) {
            raw = value;
            replaced = true;
            break;
        }
    }
    if (!replaced)
        entries.emplace_back(report.harness, value);

    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return; // reporting must never fail a harness
    out << "{\n";
    for (std::size_t k = 0; k < entries.size(); ++k) {
        out << "  \"" << entries[k].first << "\": " << entries[k].second
            << (k + 1 < entries.size() ? ",\n" : "\n");
    }
    out << "}\n";
}

} // namespace delorean
