/**
 * @file
 * Strict parsing of numeric command-line values. strtoull and strtod
 * on their own accept a leading sign ("-2" wraps to 2^64-2), stop at
 * the first bad character ("abc" reads as 0) and return NaN or
 * infinity for "nan" and "inf". These helpers accept only a value
 * that spans the whole string and that the option can mean.
 */

#ifndef TXRACE_SUPPORT_NUMPARSE_HH
#define TXRACE_SUPPORT_NUMPARSE_HH

#include <cstdint>
#include <optional>

namespace txrace {

/** A decimal unsigned integer: digits only (no sign, no space), the
 *  whole string, no overflow. */
std::optional<uint64_t> parseUnsigned(const char *text);

/** A finite double: the whole string, not NaN, not infinite. */
std::optional<double> parseFinite(const char *text);

/** parseUnsigned, or fatal() naming option @p flag. */
uint64_t unsignedOption(const char *flag, const char *text);

/** parseFinite, or fatal() naming option @p flag. */
double finiteOption(const char *flag, const char *text);

} // namespace txrace

#endif // TXRACE_SUPPORT_NUMPARSE_HH
