/**
 * @file
 * The knob table: one row per HybridConfig setting that more than
 * one front door exposes. The CLIs parse and list these flags
 * through it; SUBMIT/OPEN `key=value` overrides are validated by it
 * and applied through the same setters, so every front door accepts
 * the same values.
 */

#ifndef HYQSAT_CORE_KNOBS_H
#define HYQSAT_CORE_KNOBS_H

#include <charconv>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hyqsat::core {

struct HybridConfig;

/** Upper bound of every count: knob rows and the CLIs' own counts. */
constexpr int kMaxCount = 4096;

/**
 * Parse all of @p text as a T in [@p lo, @p hi]: the whole-word parse
 * behind every numeric knob row and every CLI-only numeric flag.
 * nullopt for an empty word, trailing junk, an out-of-range value
 * or NaN.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    T value{};
    const auto res =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (res.ec != std::errc() || res.ptr != text.data() + text.size() ||
        !(lo <= value && value <= hi))
        return std::nullopt;
    return value;
}

/**
 * Parse argv[@p i + 1], the value of the CLI-only flag argv[@p i], as
 * a number in [@p lo, @p hi] into @p out and step @p i onto it.
 * @return false, with @p error "bad FLAG: VALUE" and @p out
 *   untouched, when the value does not parse.
 */
template <typename T>
bool
parseNumberFlag(char **argv, int &i, std::string &error, T &out,
                std::type_identity_t<T> lo,
                std::type_identity_t<T> hi = std::numeric_limits<T>::max())
{
    const std::string flag = argv[i];
    const std::string_view text = argv[++i];
    const std::optional<T> value = parseNumber<T>(text, lo, hi);
    if (!value) {
        error = "bad " + flag + ": " + std::string(text);
        return false;
    }
    out = *value;
    return true;
}

/** One row of the knob table. */
struct Knob
{
    const char *flag;   ///< CLI flag without its dashes ("num-reads")
    const char *syntax; ///< value syntax for usage; nullptr = a switch
    const char *key;    ///< SUBMIT key; nullptr = no protocol override
    bool open;          ///< OPEN takes the key as well as SUBMIT

    /**
     * Write @p value into @p config after the row's range check;
     * false, leaving @p config untouched, on a bad value.
     */
    bool (*set)(HybridConfig &config, std::string_view value);
};

/** Every row, in usage-text order. */
std::span<const Knob> knobs();

/** A validated SUBMIT/OPEN override: its row and its value. */
struct KnobOverride
{
    const Knob *knob;
    std::string value;
};

using KnobOverrides = std::vector<KnobOverride>;

/**
 * Parse one `key=value` token of SUBMIT (@p open false) or OPEN
 * (@p open true). nullopt for a key that verb does not take or a
 * value the row rejects.
 */
std::optional<KnobOverride> parseOverride(std::string_view token,
                                          bool open);

/**
 * Apply @p overrides to @p config in order (a later key wins). A
 * value its row rejects keeps the configured setting.
 */
void applyOverrides(const KnobOverrides &overrides,
                    HybridConfig &config);

/**
 * Offer argv[@p i] to the table. A row's flag takes its value as
 * `--flag VALUE` or `--flag=VALUE`; a switch takes none.
 * @return true once applied, with @p i on the last word consumed;
 *   false with @p error set for a bad or missing value, and false
 *   with @p error untouched when argv[@p i] is not a table flag.
 */
bool parseFlag(int argc, char **argv, int &i, HybridConfig &config,
               std::string &error);

/** " [--flag SYNTAX]" for every row, for a CLI's usage line. */
std::string flagUsage();

} // namespace hyqsat::core

#endif // HYQSAT_CORE_KNOBS_H
