#include "runner/claim.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "fault/failpoint.hh"
#include "util/checked_io.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/numformat.hh"

namespace rcache
{

namespace
{

constexpr const char *metaName = "MANIFEST.meta";
constexpr const char *scnName = "MANIFEST.scn";

std::string
join(const std::string &dir, const std::string &name)
{
    return dir + "/" + name;
}

bool
writeWholeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
    os.flush();
    return static_cast<bool>(os);
}

std::optional<std::string>
readWholeFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** Seconds since the epoch of @p path's mtime; nullopt when the file
 *  is gone (claimed state changes race benignly with stat). */
std::optional<std::time_t>
mtimeOf(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return std::nullopt;
    return st.st_mtime;
}

/** A tmp name for publishing @p path, unique per call and not just
 *  per process: two threads publishing one path must not share (and
 *  steal) one tmp file. The ".tmp." infix is what doctor's debris
 *  scan looks for. */
std::string
tmpPathFor(const std::string &path)
{
    static std::atomic<std::uint64_t> seq{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq++);
}

} // namespace

bool
writeManifest(const std::string &dir, const ManifestInfo &info,
              std::string *err)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (err)
            *err = "cannot create manifest directory '" + dir +
                   "': " + ec.message();
        return false;
    }
    // The scenario text is written (atomically — a losing creator
    // re-publishes it after the winner's commit, and readers must
    // never catch a truncated window) before the meta file, whose
    // O_EXCL create is the commit point: a manifest without meta is
    // "still being created", one with it is immutable. Exactly one
    // concurrent creator wins the create.
    if (!atomicWriteFile(join(dir, scnName), info.scenarioText, err))
        return false;
    if (RC_FAILPOINT("claim.manifest.scn.after") !=
        fault::Fire::None) {
        if (err)
            *err = "cannot create '" + join(dir, metaName) +
                   "': injected io_error";
        return false;
    }
    const int fd = ::open(join(dir, metaName).c_str(),
                          O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        if (err)
            *err = errno == EEXIST
                       ? "manifest already exists in '" + dir + "'"
                       : "cannot create '" + join(dir, metaName) +
                             "': " + std::strerror(errno);
        return false;
    }
    std::ostringstream meta;
    meta << "mode = " << info.mode << "\nshards = " << info.shards
         << "\n";
    const std::string text = meta.str();
    const fault::Fire meta_fire =
        RC_FAILPOINT("claim.manifest.meta.write");
    if (meta_fire == fault::Fire::Torn) {
        (void)!::write(fd, text.data(), text.size() / 2);
        ::close(fd);
        fault::failpointCrash("claim.manifest.meta.write",
                              "torn write");
    }
    const bool ok =
        meta_fire == fault::Fire::None &&
        ::write(fd, text.data(), text.size()) ==
            static_cast<ssize_t>(text.size());
    ::close(fd);
    if (!ok && err)
        *err = "cannot write '" + join(dir, metaName) + "'";
    return ok;
}

std::optional<ManifestInfo>
joinManifest(const std::string &dir, std::string *err)
{
    // The winner's commit is one small write; 100 x 10 ms is ample.
    for (int attempt = 1;; ++attempt) {
        auto mf = readManifest(dir, err);
        if (mf || attempt == 100)
            return mf;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

std::optional<ManifestInfo>
readManifest(const std::string &dir, std::string *err, bool *corrupt)
{
    if (corrupt)
        *corrupt = false;
    const auto failWith = [&](const std::string &why) {
        if (err)
            *err = why;
        return std::nullopt;
    };
    // Damaged (as opposed to absent) manifests are flagged so the
    // caller can quarantine + re-create instead of dying.
    const auto corruptWith = [&](const std::string &why) {
        if (corrupt)
            *corrupt = true;
        return failWith(why);
    };
    const auto meta = readWholeFile(join(dir, metaName));
    if (!meta)
        return failWith("no manifest in '" + dir + "' (create one "
                        "with --claim DIR --scenario FILE --shards N)");
    ManifestInfo info;
    info.shards = 0;
    std::istringstream is(*meta);
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t eq = line.find(" = ");
        if (eq == std::string::npos)
            return corruptWith("malformed line in '" +
                               join(dir, metaName) + "': " + line);
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 3);
        if (key == "mode") {
            if (value != "sweep" && value != "tune")
                return corruptWith("unknown manifest mode '" +
                                   value + "'");
            info.mode = value;
        } else if (key == "shards") {
            unsigned long long v = 0;
            if (!parseU64Strict(value, v) || v == 0 || v > 4096)
                return corruptWith("manifest shards wants 1..4096, "
                                   "got '" + value + "'");
            info.shards = static_cast<unsigned>(v);
        } else {
            return corruptWith("unknown manifest key '" + key + "'");
        }
    }
    if (info.shards == 0)
        return corruptWith("manifest in '" + dir +
                           "' is missing a shard count");
    const auto scn = readWholeFile(join(dir, scnName));
    if (!scn)
        return corruptWith("manifest in '" + dir + "' has no '" +
                           scnName + "'");
    info.scenarioText = *scn;
    return info;
}

bool
quarantineManifest(const std::string &dir, std::string *err)
{
    const std::string meta = join(dir, metaName);
    const auto aside = quarantineCorruptFile(meta);
    if (!aside) {
        if (err)
            *err = "cannot move damaged '" + meta + "' aside";
        return false;
    }
    RC_LOG(warn, "damaged manifest '" + meta +
                     "' moved aside to '" + *aside + "'");
    return true;
}

std::optional<ManifestInfo>
openManifest(const std::string &dir, const std::string &mode,
             const std::optional<std::string> &scenario_text,
             unsigned shards, std::string *err)
{
    std::string read_err;
    bool corrupt = false;
    auto mf = readManifest(dir, &read_err, &corrupt);
    if (!mf) {
        if (!scenario_text) {
            *err = read_err;
            return std::nullopt;
        }
        if (shards == 0) {
            *err = "creating a manifest in '" + dir +
                   "' needs --shards N";
            return std::nullopt;
        }
        // A worker that carries the scenario can recover a damaged
        // manifest: move it aside, re-create from the scenario.
        std::string q_err;
        if (corrupt && !quarantineManifest(dir, &q_err)) {
            *err = read_err + "; " + q_err;
            return std::nullopt;
        }
        ManifestInfo info;
        info.mode = mode;
        info.shards = shards;
        info.scenarioText = *scenario_text;
        std::string write_err;
        if (writeManifest(dir, info, &write_err)) {
            mf = info;
        } else {
            // Lost the creation race; join what the winner wrote.
            mf = joinManifest(dir, &read_err);
            if (!mf) {
                *err = write_err;
                return std::nullopt;
            }
        }
    }
    if (mf->mode != mode)
        *err = "manifest in '" + dir + "' is a " + mf->mode +
               " manifest, not a " + mode;
    else if (scenario_text && *scenario_text != mf->scenarioText)
        *err = "manifest in '" + dir +
               "' was created for a different scenario";
    else if (shards != 0 && shards != mf->shards)
        *err = "--shards " + std::to_string(shards) +
               " does not match the manifest's " +
               std::to_string(mf->shards);
    else
        return mf;
    return std::nullopt;
}

ClaimDir::ClaimDir(std::string dir, unsigned lease_timeout_secs)
    : dir_(std::move(dir)), timeoutSecs_(lease_timeout_secs)
{
}

std::string
ClaimDir::path(const std::string &name) const
{
    return join(dir_, name);
}

bool
ClaimDir::takeOverIfStale(const std::string &unit) const
{
    const std::string lease = path(unit + ".lease");
    const auto mtime = mtimeOf(lease);
    if (!mtime)
        return false; // no lease to steal
    if (std::time(nullptr) - *mtime <=
        static_cast<std::time_t>(timeoutSecs_))
        return false; // fresh: its worker is alive
    // Exactly one contender's rename succeeds; the stale lease is
    // moved aside (kept for post-mortems) rather than unlinked so
    // the losers fail cleanly with ENOENT.
    const std::string aside = lease + ".stale." +
                              std::to_string(::getpid()) + "." +
                              std::to_string(*mtime);
    if (::rename(lease.c_str(), aside.c_str()) != 0) {
        // ENOENT: a rival's takeover won the race — business as
        // usual. Anything else is a sick filesystem worth a note.
        if (errno != ENOENT)
            RC_LOG(warn, "cannot move stale lease '" + lease +
                             "' aside: " + std::strerror(errno));
        return false;
    }
    (void)RC_FAILPOINT("claim.takeover.aside");
    return true;
}

bool
ClaimDir::tryClaim(const std::string &unit) const
{
    if (isDone(unit))
        return false;
    takeOverIfStale(unit);
    const std::string lease = path(unit + ".lease");
    const int fd =
        ::open(lease.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false; // someone else holds it (or I/O trouble)
    const std::string text = std::to_string(::getpid()) + "\n";
    // Best-effort content; the lease's existence is what matters.
    (void)!::write(fd, text.data(), text.size());
    ::close(fd);
    (void)RC_FAILPOINT("claim.lease.after_create");
    return true;
}

bool
ClaimDir::heartbeat(const std::string &unit) const
{
    const std::string lease = path(unit + ".lease");
    const bool injected =
        RC_FAILPOINT("claim.heartbeat") != fault::Fire::None;
    // A null times pointer sets both timestamps to now.
    if (injected ||
        ::utimensat(AT_FDCWD, lease.c_str(), nullptr, 0) != 0) {
        ++hbFailures_;
        RC_LOG(warn,
               "heartbeat failed for '" + lease + "' (" +
                   (injected ? "injected io_error"
                             : std::strerror(errno)) +
                   "); lease is aging toward takeover");
        if (hbFailures_ == kDegradedAfter)
            RC_LOG(error,
                   "worker degraded: " +
                       std::to_string(hbFailures_) +
                       " consecutive heartbeat failures on '" +
                       lease +
                       "' — another worker may steal this unit");
        return false;
    }
    hbFailures_ = 0;
    return true;
}

bool
ClaimDir::release(const std::string &unit) const
{
    const std::string lease = path(unit + ".lease");
    const auto content = readWholeFile(lease);
    if (!content ||
        *content != std::to_string(::getpid()) + "\n")
        return false; // not ours (takeover happened, or gone)
    return ::unlink(lease.c_str()) == 0;
}

bool
ClaimDir::markDone(const std::string &unit, std::string *err) const
{
    if (RC_FAILPOINT("claim.done.before") != fault::Fire::None) {
        if (err)
            *err = "cannot write '" + path(unit + ".done") +
                   "': injected io_error";
        return false;
    }
    if (!writeWholeFile(path(unit + ".done"), "ok\n")) {
        if (err)
            *err = "cannot write '" + path(unit + ".done") + "'";
        return false;
    }
    if (::unlink(path(unit + ".lease").c_str()) != 0 &&
        errno != ENOENT)
        RC_LOG(warn, "cannot drop lease '" + path(unit + ".lease") +
                         "': " + std::strerror(errno));
    return true;
}

bool
ClaimDir::isDone(const std::string &unit) const
{
    return std::filesystem::exists(path(unit + ".done"));
}

bool
ClaimDir::leaseFresh(const std::string &unit) const
{
    const auto mtime = mtimeOf(path(unit + ".lease"));
    return mtime && std::time(nullptr) - *mtime <=
                        static_cast<std::time_t>(timeoutSecs_);
}

std::string
sweepUnitName(unsigned shard)
{
    return "shard_" + std::to_string(shard);
}

std::string
tuneUnitName(std::size_t round, unsigned shard)
{
    // Appends, not an operator+ chain: GCC 12 reports a false
    // -Wrestrict on the chain once it is inlined.
    std::string name = "r";
    name += std::to_string(round);
    name += "_s";
    name += std::to_string(shard);
    return name;
}

int
drainClaimUnits(const ClaimDir &claims,
                const std::vector<std::string> &units,
                const ClaimUnitRun &run)
{
    for (;;) {
        if (interruptRequested()) {
            std::cerr << "rcache-sim: interrupted; committed units "
                         "stay done, rerun to continue '"
                      << claims.dir() << "'\n";
            return interruptExitCode();
        }
        bool progressed = false;
        for (std::size_t u = 0; u < units.size() && !interruptRequested();
             ++u) {
            const std::string &unit = units[u];
            if (claims.isDone(unit) || !claims.tryClaim(unit))
                continue;
            const std::string csv = claims.path(unit + ".csv");
            const std::string tmp = tmpPathFor(csv);
            const int rc = run(u, tmp, [&] {
                claims.heartbeat(unit);
                return !interruptRequested();
            });
            if (rc != 0) {
                std::remove(tmp.c_str());
                if (interruptRequested()) {
                    // Give the unit straight back: a released lease
                    // is immediately claimable, no timeout needed.
                    claims.release(unit);
                    std::cerr << "rcache-sim: interrupted; released '"
                              << unit << "', rerun to continue '"
                              << claims.dir() << "'\n";
                    return interruptExitCode();
                }
                // Leave the lease: it goes stale and a peer (or a
                // rerun) takes the unit over.
                return rc;
            }
            if (RC_FAILPOINT("claim.unit.publish") != fault::Fire::None ||
                std::rename(tmp.c_str(), csv.c_str()) != 0)
                return refuse("cannot publish '" + csv + "'");
            std::string done_err;
            if (!claims.markDone(unit, &done_err))
                return refuse(done_err);
            progressed = true;
        }
        if (std::all_of(units.begin(), units.end(),
                        [&](const std::string &unit) {
                            return claims.isDone(unit);
                        }))
            return 0;
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

bool
atomicWriteFile(const std::string &path, const std::string &text,
                std::string *err)
{
    const std::string tmp = tmpPathFor(path);
    if (!writeWholeFile(tmp, text)) {
        if (err)
            *err = "cannot write '" + tmp + "'";
        return false;
    }
    if (RC_FAILPOINT("atomic.publish") != fault::Fire::None) {
        if (err)
            *err = "cannot publish '" + path +
                   "': injected io_error";
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        if (err)
            *err = "cannot publish '" + path +
                   "': " + std::strerror(errno);
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace rcache
