#include "support/numparse.hh"

#include <cerrno>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "support/log.hh"

namespace txrace {

std::optional<uint64_t>
parseUnsigned(const char *text)
{
    // strtoull skips leading space and takes a sign; insist on a
    // digit first so neither gets through.
    if (*text < '0' || *text > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return static_cast<uint64_t>(v);
}

std::optional<double>
parseFinite(const char *text)
{
    if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text)))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

uint64_t
unsignedOption(const char *flag, const char *text)
{
    if (std::optional<uint64_t> v = parseUnsigned(text))
        return *v;
    fatal("%s: '%s' is not an unsigned integer", flag, text);
}

double
finiteOption(const char *flag, const char *text)
{
    if (std::optional<double> v = parseFinite(text))
        return *v;
    fatal("%s: '%s' is not a finite number", flag, text);
}

} // namespace txrace
