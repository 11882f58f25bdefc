/**
 * @file
 * `rcache-sim doctor <claim-dir>`: a read-only consistency audit of
 * a cooperative manifest directory, for operators deciding whether a
 * crashed or interrupted fleet left the directory resumable.
 *
 * The doctor never mutates anything. It classifies every work unit
 * (lease live/stale, done, in progress), verifies each committed
 * unit CSV still parses, and inventories the debris a crash leaves
 * behind (orphan tmp files, renamed-aside stale leases and corrupt
 * files). Optionally it audits a decision log, read as `tune
 * --resume` reads it (readTuneLog): each line must be the one the
 * writer writes there, and on a tune manifest each round must be the
 * one the scenario's promotion rule schedules there
 * (tuneLogMismatch). Exit code 0 means consistent (possibly
 * unfinished — that is what reruns are for; a log cut at a line
 * boundary is too); 2 means an inconsistency that needs a human: a
 * committed unit whose CSV is damaged, a unit file whose name a
 * worker could not have written, a damaged or foreign decision log,
 * or a manifest that no worker can read.
 */

#ifndef RCACHE_SEARCH_DOCTOR_HH
#define RCACHE_SEARCH_DOCTOR_HH

#include <iosfwd>
#include <string>

namespace rcache
{

struct DoctorOptions
{
    /** Lease age beyond which a unit counts as stale (matches the
     *  workers' --lease-timeout). */
    unsigned leaseTimeoutSecs = 300;
    /** Also audit this decision log ("" = skip). */
    std::string logPath;
};

/** Audit @p dir, writing the report to @p out. @return 0 consistent,
 *  2 inconsistent (or not a readable manifest directory). */
int runDoctor(const std::string &dir, const DoctorOptions &opt,
              std::ostream &out);

} // namespace rcache

#endif // RCACHE_SEARCH_DOCTOR_HH
