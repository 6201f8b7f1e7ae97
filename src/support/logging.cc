#include "support/logging.h"

#include <cstdio>
#include <mutex>
#include <set>

namespace assassyn {
namespace detail {

namespace {

std::mutex io_mutex;

/**
 * One message = one mutexed write. The prefix and the newline are
 * composed into a single buffer before touching stderr so concurrent
 * simulator instances (sim/sweep.h) can never interleave mid-message,
 * even through stdio implementations that split fprintf format
 * segments into separate writes.
 */
void
emitLine(const char *prefix, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 8);
    line += prefix;
    line += msg;
    line += '\n';
    std::lock_guard<std::mutex> lock(io_mutex);
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace

void
emitWarning(const std::string &msg)
{
    emitLine("warn: ", msg);
}

void
emitInform(const std::string &msg)
{
    emitLine("info: ", msg);
}

} // namespace detail

namespace {

// The process-wide registry of live output paths behind PathLease.
// Plain function-local statics so the registry is ready before any
// static-initialization-order games and never torn down while a lease
// can still release into it.
std::mutex &
leaseMutex()
{
    static std::mutex m;
    return m;
}

std::set<std::string> &
leasedPaths()
{
    static std::set<std::string> s;
    return s;
}

} // namespace

PathLease::PathLease(std::string path) : path_(std::move(path))
{
    std::lock_guard<std::mutex> lock(leaseMutex());
    if (!leasedPaths().insert(path_).second)
        fatal("output path collision: '", path_,
              "' is already open for writing by this process — two "
              "concurrent runs (e.g. runSweep instances) were given the "
              "same trace/report path; give each run a distinct path");
}

PathLease::~PathLease()
{
    std::lock_guard<std::mutex> lock(leaseMutex());
    leasedPaths().erase(path_);
}

OutputFile::OutputFile(std::string path) : lease_(std::move(path))
{
    file_ = std::fopen(lease_.path().c_str(), "w");
    if (!file_)
        fatal("cannot open output file '", lease_.path(),
              "' for writing");
}

OutputFile::~OutputFile()
{
    if (file_)
        std::fclose(file_);
}

void
OutputFile::write(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(text.data(), 1, text.size(), file_);
}

void
OutputFile::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::fflush(file_);
}

} // namespace assassyn
