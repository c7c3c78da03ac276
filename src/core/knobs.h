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

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hyqsat::core {

struct HybridConfig;

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
