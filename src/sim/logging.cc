#include "logging.h"

#include <cstdio>
#include <cstdlib>

namespace prosperity {

void
assertionFailed(const char* condition, const char* message)
{
    std::fprintf(stderr, "[panic] assertion failed: %s %s\n", condition,
                 message);
    std::abort();
}

} // namespace prosperity
