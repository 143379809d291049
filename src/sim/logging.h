/**
 * @file
 * Invariant checks for the Prosperity simulator.
 */

#ifndef PROSPERITY_SIM_LOGGING_H
#define PROSPERITY_SIM_LOGGING_H

namespace prosperity {

/** Print `[panic] assertion failed: <condition> <message>` to stderr
 *  and abort, so a core dump or debugger captures the state. */
[[noreturn]] void assertionFailed(const char* condition,
                                  const char* message);

} // namespace prosperity

/** Assert a simulator invariant; aborts with the condition text and
 *  `message` (a string literal) on failure. */
#define PROSPERITY_ASSERT(cond, message)                                    \
    do {                                                                    \
        if (!(cond))                                                        \
            ::prosperity::assertionFailed(#cond, message);                  \
    } while (0)

#endif // PROSPERITY_SIM_LOGGING_H
