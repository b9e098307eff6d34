//! Named scenarios shipped with the crate.
//!
//! Every `.scn` script under `crates/scenario/scenarios/` is embedded at
//! compile time and parsed once, lazily. Each script's first line is a
//! `# name: description` header. The registry self-tests check that every
//! script parses, that the header name matches the file stem, that names
//! are unique, and that the embedded scripts are exactly the files under
//! `scenarios/`.

use std::sync::OnceLock;

use crate::Scenario;

/// The embedded scripts, file stem first. Order here is the order
/// `solarml scenario list` prints.
const SOURCES: &[(&str, &str)] = &[
    (
        "arctic_summer",
        include_str!("../scenarios/arctic_summer.scn"),
    ),
    (
        "brownout_gauntlet",
        include_str!("../scenarios/brownout_gauntlet.scn"),
    ),
    ("cloudy_day", include_str!("../scenarios/cloudy_day.scn")),
    (
        "commuter_pocket",
        include_str!("../scenarios/commuter_pocket.scn"),
    ),
    (
        "equatorial_rooftop",
        include_str!("../scenarios/equatorial_rooftop.scn"),
    ),
    (
        "flaky_harvester",
        include_str!("../scenarios/flaky_harvester.scn"),
    ),
    (
        "home_reference",
        include_str!("../scenarios/home_reference.scn"),
    ),
    (
        "monsoon_season",
        include_str!("../scenarios/monsoon_season.scn"),
    ),
    (
        "office_reference",
        include_str!("../scenarios/office_reference.scn"),
    ),
    (
        "office_with_blinds",
        include_str!("../scenarios/office_with_blinds.scn"),
    ),
    (
        "outdoor_reference",
        include_str!("../scenarios/outdoor_reference.scn"),
    ),
    (
        "polar_winter",
        include_str!("../scenarios/polar_winter.scn"),
    ),
    (
        "stressed_office_day",
        include_str!("../scenarios/stressed_office_day.scn"),
    ),
    (
        "weekend_idle_home",
        include_str!("../scenarios/weekend_idle_home.scn"),
    ),
];

/// One shipped scenario: its registry name, one-line description, raw
/// script text, and the parsed [`Scenario`].
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// Registry name (equal to the `.scn` file stem).
    pub name: &'static str,
    /// One-line description from the script header.
    pub description: String,
    /// The raw script text as shipped.
    pub source: &'static str,
    /// The parsed, type-checked scenario.
    pub scenario: Scenario,
}

/// All shipped scenarios, in listing order.
pub fn all() -> &'static [RegistryEntry] {
    static ENTRIES: OnceLock<Vec<RegistryEntry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        SOURCES
            .iter()
            .map(|&(name, source)| {
                let scenario = match Scenario::parse(source) {
                    Ok(s) => s,
                    // Unreachable for shipped scripts: the registry
                    // self-test parses every one of them.
                    Err(e) => panic!("embedded scenario `{name}` failed to parse: {e}"),
                };
                let description = scenario.description().unwrap_or_default().to_string();
                RegistryEntry {
                    name,
                    description,
                    source,
                    scenario,
                }
            })
            .collect()
    })
}

/// Looks a shipped scenario up by registry name.
pub fn find(name: &str) -> Option<&'static RegistryEntry> {
    all().iter().find(|e| e.name == name)
}

/// The shipped scenario names, in listing order.
pub fn names() -> Vec<&'static str> {
    all().iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_script_parses_with_a_matching_header() {
        let entries = all();
        assert!(entries.len() >= 10, "ISSUE requires 10+ shipped scenarios");
        for e in entries {
            assert_eq!(
                e.scenario.name(),
                Some(e.name),
                "header name must match the file stem for `{}`",
                e.name
            );
            assert!(
                !e.description.is_empty(),
                "`{}` needs a one-line description",
                e.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_lookup_works() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry names");
        assert!(find("stressed_office_day").is_some());
        assert!(find("no_such_scenario").is_none());
    }

    /// The embedded scripts are exactly the files under `scenarios/`: a
    /// script on disk the registry does not ship is a dead scenario the CLI
    /// cannot find, and an embedded copy must be the file byte for byte.
    #[test]
    fn registry_embeds_exactly_the_shipped_files() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        let mut stems: Vec<String> = std::fs::read_dir(&dir)
            .expect("scenarios/ is readable")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "scn"))
            .map(|p| {
                let stem = p.file_stem().expect("file has a stem");
                stem.to_string_lossy().into_owned()
            })
            .collect();
        stems.sort();
        let mut registered = names();
        registered.sort_unstable();
        assert_eq!(stems, registered, "file stems must equal registry names");
        for stem in &stems {
            let on_disk = std::fs::read_to_string(dir.join(format!("{stem}.scn")))
                .expect("script is readable");
            let entry = find(stem).expect("every stem is registered");
            assert_eq!(entry.source, on_disk, "`{stem}` embeds a stale copy");
        }
    }

    #[test]
    fn every_shipped_scenario_evaluates_deterministically() {
        for e in all() {
            let a = e.scenario.eval(0xC0FFEE);
            let b = e.scenario.eval(0xC0FFEE);
            assert_eq!(a, b, "`{}` must be bit-reproducible", e.name);
            // And the canonical rendering round-trips.
            let again = Scenario::parse(&e.scenario.render())
                .unwrap_or_else(|err| panic!("`{}` canonical form must re-parse: {err}", e.name));
            assert_eq!(&again, &e.scenario, "`{}` render round-trip", e.name);
        }
    }
}
