/**
 * @file
 * Diagnostic primitives for the Assassyn toolchain.
 *
 * Follows the gem5 split between user-facing errors and internal bugs:
 *  - fatal(): the *design or input* is wrong (e.g. a combinational cycle,
 *    a register written twice in one cycle). Raises FatalError so callers
 *    (and tests) can observe and recover.
 *  - panic(): the *toolchain itself* is broken. Raises InternalError.
 *  - warn()/inform(): non-fatal status messages on stderr.
 */
#pragma once

#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

namespace assassyn {

/** Error caused by an invalid design or invalid user input. */
class FatalError : public std::runtime_error {
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Error caused by a bug inside the Assassyn toolchain itself. */
class InternalError : public std::logic_error {
  public:
    explicit InternalError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

/** Fold a pack of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

void emitWarning(const std::string &msg);
void emitInform(const std::string &msg);

} // namespace detail

/** Abort with a user-level (design) error. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/** Abort with a toolchain-internal error. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw InternalError(detail::concat(std::forward<Args>(args)...));
}

/** Print a warning that does not stop elaboration or simulation. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitWarning(detail::concat(std::forward<Args>(args)...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emitInform(detail::concat(std::forward<Args>(args)...));
}

/** Assert an internal invariant; violation is a toolchain bug. */
inline void
assertThat(bool cond, const std::string &msg)
{
    if (!cond)
        throw InternalError("assertion failed: " + msg);
}

/**
 * A process-wide exclusive lease on an output path.
 *
 * Two concurrent simulator instances handed the same trace/VCD/report
 * path would silently interleave or clobber each other's output — the
 * classic runSweep misconfiguration. Every writer of a run artifact
 * takes a lease first; a second lease on a live path is a fatal()
 * structured error naming the path, which the sweep runner's
 * first-error capture surfaces on the calling thread. The lease is
 * released on destruction, so *sequential* reuse of a path (run, then
 * rerun) stays legal. Matching is by exact path string: two spellings
 * of one file ("a.json" vs "./a.json") are not detected, which is fine
 * for the generated-config case this guards.
 */
class PathLease {
  public:
    explicit PathLease(std::string path);
    ~PathLease();

    PathLease(const PathLease &) = delete;
    PathLease &operator=(const PathLease &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * The locked output-file writer: an exclusive PathLease plus a FILE
 * with a per-file mutex, so every artifact writer (timeline traces,
 * event traces, VCD waveforms, sweep reports) gets collision detection
 * and non-interleaved writes from one place. Writers compose each
 * record first; one write() call is one atomic append.
 */
class OutputFile {
  public:
    /** Opens @p path for writing; fatal() on collision or open failure. */
    explicit OutputFile(std::string path);
    ~OutputFile();

    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    /** Append one blob under the file lock. */
    void write(const std::string &text);

    void flush();

    const std::string &path() const { return lease_.path(); }

  private:
    PathLease lease_;
    FILE *file_ = nullptr;
    std::mutex mutex_;
};

} // namespace assassyn
