/**
 * @file
 * JsonLedger: the one JSON-emission helper for every bench harness.
 *
 * Each harness used to hand-roll its BENCH_*.json writer (ofstream
 * string-soup in replay_speed, a private JsonWriter in micro_hotpath,
 * an ostringstream in validate_sweep). This header replaces all of
 * them with a single streaming writer: nested objects via
 * open()/close(), typed field() overloads, comma/indent bookkeeping,
 * and a writeTo() that closes any scopes still open. Values are
 * emitted in call order, so harness output stays deterministic at any
 * worker count as long as fields are written from the collection
 * loop, not the workers.
 */

#ifndef DELOREAN_BENCH_LEDGER_HPP_
#define DELOREAN_BENCH_LEDGER_HPP_

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace delorean_bench
{

class JsonLedger
{
  public:
    /** Starts the document and stamps the harness name. */
    explicit JsonLedger(std::string harness)
        : harness_(std::move(harness))
    {
        out_.push_back('{');
        first_.push_back(true);
        field("harness", harness_);
    }

    /** Open a nested object under @p key. */
    void
    open(const std::string &key)
    {
        emitKey(key);
        out_ += '{';
        first_.push_back(true);
    }

    /** Close the innermost object opened with open(). */
    void
    close()
    {
        if (first_.size() <= 1)
            return;
        const bool empty = first_.back();
        first_.pop_back();
        if (!empty) {
            out_ += '\n';
            out_.append(2 * first_.size(), ' ');
        }
        out_ += '}';
    }

    /**
     * Flat-section sugar (micro_hotpath style): closes the previous
     * section, if any, and opens a new top-level one.
     */
    void
    section(const std::string &key)
    {
        while (first_.size() > 1)
            close();
        open(key);
    }

    void
    field(const std::string &key, const std::string &value)
    {
        emitKey(key);
        out_ += '"';
        appendEscaped(value);
        out_ += '"';
    }

    void
    field(const std::string &key, const char *value)
    {
        field(key, std::string(value));
    }

    void
    field(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        rawField(key, buf);
    }

    void
    field(const std::string &key, bool value)
    {
        rawField(key, value ? "true" : "false");
    }

    template <typename T,
              typename std::enable_if<std::is_integral<T>::value
                                          && !std::is_same<T, bool>::value,
                                      int>::type = 0>
    void
    field(const std::string &key, T value)
    {
        char buf[32];
        if (std::is_signed<T>::value)
            std::snprintf(buf, sizeof buf, "%" PRId64,
                          static_cast<std::int64_t>(value));
        else
            std::snprintf(buf, sizeof buf, "%" PRIu64,
                          static_cast<std::uint64_t>(value));
        rawField(key, buf);
    }

    /**
     * A "host" object naming the machine the figures were measured
     * on: CPU model (from /proc/cpuinfo where present) and hardware
     * thread count.
     */
    void
    host()
    {
        std::string model = "unknown";
        std::ifstream cpuinfo("/proc/cpuinfo");
        for (std::string line; std::getline(cpuinfo, line);) {
            if (line.rfind("model name", 0) == 0) {
                const std::size_t colon = line.find(':');
                if (colon != std::string::npos)
                    model = line.substr(line.find_first_not_of(' ', colon + 1));
                break;
            }
        }
        open("host");
        field("cpuModel", model);
        field("hardwareThreads", std::thread::hardware_concurrency());
        close();
    }

    /** Emit @p json_value verbatim (caller guarantees valid JSON). */
    void
    rawField(const std::string &key, const std::string &json_value)
    {
        emitKey(key);
        out_ += json_value;
    }

    /**
     * Close every open scope, terminate the document and write it.
     * Returns false (with a stderr note) when the file can't be
     * opened. Call once; the ledger is spent afterwards.
     */
    bool
    writeTo(const std::string &path)
    {
        while (first_.size() > 1)
            close();
        out_ += "\n}\n";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "%s: cannot write %s\n",
                         harness_.c_str(), path.c_str());
            return false;
        }
        std::fwrite(out_.data(), 1, out_.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "%s: wrote %s\n", harness_.c_str(),
                     path.c_str());
        return true;
    }

    /** Report destination: @p env_var if set, else @p fallback. */
    static std::string
    path(const char *env_var, const char *fallback)
    {
        if (const char *env = std::getenv(env_var))
            return env;
        return fallback;
    }

  private:
    void
    emitKey(const std::string &key)
    {
        out_ += first_.back() ? "\n" : ",\n";
        first_.back() = false;
        out_.append(2 * first_.size(), ' ');
        out_ += '"';
        appendEscaped(key);
        out_ += "\": ";
    }

    void
    appendEscaped(const std::string &s)
    {
        for (const char c : s) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            out_ += c;
        }
    }

    std::string harness_;
    std::string out_;
    std::vector<bool> first_;
};

} // namespace delorean_bench

#endif // DELOREAN_BENCH_LEDGER_HPP_
