/**
 * @file
 * Cooperative SIGINT/SIGTERM handling for the long-running drivers.
 *
 * sweep and tune install the handlers once; the engines poll
 * interruptRequested() where they start new work (sweep: after every
 * finished lane group, once the commit units it completed are
 * written and flushed, so no new group starts; claim workers, for a
 * sweep's units and a tune round's alike: between lane groups, via
 * the lease heartbeat, and between units; a local tune: between
 * rounds). On the first signal the in-flight work finishes and the
 * driver exits 128+sig after leaving a documented resumable state —
 * the flushed CSV prefix of whole commit units for --resume, released
 * leases for --claim. A second signal exits immediately (the escape
 * hatch when a running group itself is the problem).
 */

#ifndef RCACHE_UTIL_INTERRUPT_HH
#define RCACHE_UTIL_INTERRUPT_HH

namespace rcache
{

/** Install the SIGINT/SIGTERM record-and-continue handlers. */
void installInterruptHandlers();

/** A signal arrived since installInterruptHandlers(). Always false
 *  when the handlers were never installed (library callers). */
bool interruptRequested();

/** 128+signal of the recorded signal (130 SIGINT, 143 SIGTERM);
 *  0 when none arrived. */
int interruptExitCode();

} // namespace rcache

#endif // RCACHE_UTIL_INTERRUPT_HH
