//! Minimal flag parsing (no external dependencies).

/// Parsed command options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    /// `--task gesture|kws`
    pub task: Option<String>,
    /// `--lambda <f64>`
    pub lambda: Option<f64>,
    /// `--sleep <seconds>`
    pub sleep: Option<f64>,
    /// `--budget-uj <f64>`
    pub budget_uj: Option<f64>,
    /// `--budget-mj <f64>`
    pub budget_mj: Option<f64>,
    /// `--csv <path>`
    pub csv: Option<String>,
    /// `--seed <u64>`
    pub seed: Option<u64>,
    /// `--workers <usize>` (0 = available parallelism)
    pub workers: Option<usize>,
    /// `--nodes <usize>`
    pub nodes: Option<usize>,
    /// `--out <path>`
    pub out: Option<String>,
    /// `--checkpoint-dir <dir>`
    pub checkpoint_dir: Option<String>,
    /// `--checkpoint-every <node-days>`
    pub checkpoint_every: Option<u64>,
    /// `--resume`
    pub resume: bool,
    /// `--full`
    pub full: bool,
    /// `--store-dir <dir>`: content-addressed node-day outcome store.
    pub store_dir: Option<String>,
    /// `--store-max-entries <n>`: GC bound on cached node-days.
    pub store_max_entries: Option<usize>,
    /// `--store-max-bytes <n>`: GC bound on the store's on-disk size.
    pub store_max_bytes: Option<u64>,
    /// `--scenario <name|path>`: drive the campaign's environment, fault
    /// and workload conditions from a named registry scenario or a `.scn`
    /// script file (`fleet`, `scenario run`).
    pub scenario: Option<String>,
    /// `--param <name>`: population parameter to edit (see
    /// `PopulationSpec::set_param` for the names).
    pub param: Option<String>,
    /// `--value <f64>`: the edited parameter's value (`fleet`).
    pub value: Option<f64>,
    /// `--values <v1,v2,...>`: one sweep variant per value (`fleet sweep`).
    pub values: Option<Vec<f64>>,
}

impl Options {
    /// Parses `--flag value` pairs and boolean flags.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, missing values or unparsable
    /// numbers.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--full" => opts.full = true,
                "--task" => opts.task = Some(take(&mut it, flag)?),
                "--csv" => opts.csv = Some(take(&mut it, flag)?),
                "--lambda" => opts.lambda = Some(take_num(&mut it, flag)?),
                "--sleep" => opts.sleep = Some(take_num(&mut it, flag)?),
                "--budget-uj" => opts.budget_uj = Some(take_num(&mut it, flag)?),
                "--budget-mj" => opts.budget_mj = Some(take_num(&mut it, flag)?),
                "--seed" => {
                    let raw: String = take(&mut it, flag)?;
                    opts.seed = Some(
                        raw.parse()
                            .map_err(|e| format!("{flag}: invalid integer `{raw}` ({e})"))?,
                    );
                }
                "--workers" => {
                    let raw: String = take(&mut it, flag)?;
                    opts.workers = Some(
                        raw.parse()
                            .map_err(|e| format!("{flag}: invalid integer `{raw}` ({e})"))?,
                    );
                }
                "--nodes" => {
                    let raw: String = take(&mut it, flag)?;
                    opts.nodes = Some(
                        raw.parse()
                            .map_err(|e| format!("{flag}: invalid integer `{raw}` ({e})"))?,
                    );
                }
                "--out" => opts.out = Some(take(&mut it, flag)?),
                "--checkpoint-dir" => opts.checkpoint_dir = Some(take(&mut it, flag)?),
                "--checkpoint-every" => {
                    let raw: String = take(&mut it, flag)?;
                    let every: u64 = raw
                        .parse()
                        .map_err(|e| format!("{flag}: invalid integer `{raw}` ({e})"))?;
                    if every == 0 {
                        return Err(format!("{flag} must be at least 1 node-day"));
                    }
                    opts.checkpoint_every = Some(every);
                }
                "--resume" => opts.resume = true,
                "--store-dir" => opts.store_dir = Some(take(&mut it, flag)?),
                "--store-max-entries" => {
                    let raw: String = take(&mut it, flag)?;
                    opts.store_max_entries = Some(
                        raw.parse()
                            .map_err(|e| format!("{flag}: invalid integer `{raw}` ({e})"))?,
                    );
                }
                "--store-max-bytes" => {
                    let raw: String = take(&mut it, flag)?;
                    opts.store_max_bytes = Some(
                        raw.parse()
                            .map_err(|e| format!("{flag}: invalid integer `{raw}` ({e})"))?,
                    );
                }
                "--scenario" => opts.scenario = Some(take(&mut it, flag)?),
                "--param" => opts.param = Some(take(&mut it, flag)?),
                "--value" => opts.value = Some(take_num(&mut it, flag)?),
                "--values" => {
                    let raw: String = take(&mut it, flag)?;
                    let parsed: Result<Vec<f64>, String> = raw
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .map_err(|e| format!("{flag}: invalid number `{v}` ({e})"))
                        })
                        .collect();
                    let parsed = parsed?;
                    if parsed.is_empty() {
                        return Err(format!("{flag} needs at least one value"));
                    }
                    opts.values = Some(parsed);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.resume && opts.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir <dir>".to_string());
        }
        if opts.checkpoint_every.is_some() && opts.checkpoint_dir.is_none() {
            return Err("--checkpoint-every requires --checkpoint-dir <dir>".to_string());
        }
        if (opts.store_max_entries.is_some() || opts.store_max_bytes.is_some())
            && opts.store_dir.is_none()
        {
            return Err(
                "--store-max-entries/--store-max-bytes require --store-dir <dir>".to_string(),
            );
        }
        if opts.value.is_some() && opts.param.is_none() {
            return Err("--value requires --param <name>".to_string());
        }
        if opts.values.is_some() && opts.param.is_none() {
            return Err("--values requires --param <name>".to_string());
        }
        if opts.value.is_some() && opts.values.is_some() {
            return Err("--value and --values are mutually exclusive".to_string());
        }
        if let Some(task) = &opts.task {
            if task != "gesture" && task != "kws" {
                return Err(format!("--task must be `gesture` or `kws`, got `{task}`"));
            }
        }
        if let Some(l) = opts.lambda {
            if !(0.0..=1.0).contains(&l) {
                return Err(format!("--lambda must be in [0,1], got {l}"));
            }
        }
        Ok(opts)
    }
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn take_num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<f64, String> {
    let raw = take(it, flag)?;
    raw.parse()
        .map_err(|e| format!("{flag}: invalid number `{raw}` ({e})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn parses_mixed_flags() {
        let opts = parse(&[
            "--task",
            "kws",
            "--lambda",
            "0.5",
            "--full",
            "--workers",
            "4",
        ])
        .expect("valid");
        assert_eq!(opts.task.as_deref(), Some("kws"));
        assert_eq!(opts.lambda, Some(0.5));
        assert!(opts.full);
        assert_eq!(opts.workers, Some(4));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--lambda"]).is_err());
        assert!(parse(&["--lambda", "nope"]).is_err());
        assert!(parse(&["--lambda", "2.0"]).is_err());
        assert!(parse(&["--task", "audio"]).is_err());
        assert!(parse(&["--workers", "-1"]).is_err());
        assert!(parse(&["--workers", "two"]).is_err());
    }

    #[test]
    fn parses_fleet_flags() {
        let opts = parse(&["--nodes", "256", "--out", "report.json"]).expect("valid");
        assert_eq!(opts.nodes, Some(256));
        assert_eq!(opts.out.as_deref(), Some("report.json"));
    }

    #[test]
    fn rejects_bad_fleet_flags() {
        assert!(parse(&["--nodes"]).is_err(), "--nodes needs a value");
        assert!(parse(&["--nodes", "-5"]).is_err());
        assert!(parse(&["--nodes", "many"]).is_err());
        assert!(parse(&["--out"]).is_err(), "--out needs a path");
    }

    #[test]
    fn parses_checkpoint_flags() {
        let opts = parse(&[
            "--checkpoint-dir",
            "ckpts",
            "--checkpoint-every",
            "64",
            "--resume",
        ])
        .expect("valid");
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("ckpts"));
        assert_eq!(opts.checkpoint_every, Some(64));
        assert!(opts.resume);

        // A store and checkpoints compose: the durable campaign replays
        // node-days from the store.
        let opts = parse(&["--store-dir", "s", "--checkpoint-dir", "c", "--resume"])
            .expect("store with checkpoints");
        assert_eq!(opts.store_dir.as_deref(), Some("s"));
        assert_eq!(opts.checkpoint_dir.as_deref(), Some("c"));
    }

    #[test]
    fn rejects_checkpoint_flags_without_a_dir() {
        let err = parse(&["--resume"]).expect_err("resume needs a dir");
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse(&["--checkpoint-every", "8"]).expect_err("cadence needs a dir");
        assert!(err.contains("--checkpoint-dir"), "{err}");
        assert!(parse(&["--checkpoint-dir"]).is_err(), "needs a value");
        assert!(parse(&["--checkpoint-dir", "d", "--checkpoint-every", "0"]).is_err());
        assert!(parse(&["--checkpoint-dir", "d", "--checkpoint-every", "x"]).is_err());
    }

    #[test]
    fn parses_store_and_sweep_flags() {
        let opts = parse(&[
            "--store-dir",
            "cache",
            "--store-max-entries",
            "512",
            "--store-max-bytes",
            "65536",
            "--param",
            "office-peak-hi",
            "--values",
            "700, 800,900",
        ])
        .expect("valid");
        assert_eq!(opts.store_dir.as_deref(), Some("cache"));
        assert_eq!(opts.store_max_entries, Some(512));
        assert_eq!(opts.store_max_bytes, Some(65536));
        assert_eq!(opts.param.as_deref(), Some("office-peak-hi"));
        assert_eq!(opts.values, Some(vec![700.0, 800.0, 900.0]));

        let opts = parse(&[
            "--store-dir",
            "cache",
            "--param",
            "ladder-share",
            "--value",
            "0.5",
        ])
        .expect("valid");
        assert_eq!(opts.value, Some(0.5));
    }

    #[test]
    fn rejects_inconsistent_store_and_sweep_flags() {
        let err = parse(&["--store-max-entries", "9"]).expect_err("needs a dir");
        assert!(err.contains("--store-dir"), "{err}");
        let err = parse(&["--store-max-bytes", "9"]).expect_err("needs a dir");
        assert!(err.contains("--store-dir"), "{err}");
        let err = parse(&["--value", "1.0"]).expect_err("value needs param");
        assert!(err.contains("--param"), "{err}");
        let err = parse(&["--values", "1,2"]).expect_err("values need param");
        assert!(err.contains("--param"), "{err}");
        assert!(parse(&["--param", "x", "--value", "1", "--values", "2"]).is_err());
        assert!(parse(&["--param", "x", "--values", "1,oops"]).is_err());
        assert!(parse(&["--param", "x", "--values", ""]).is_err());
        assert!(parse(&["--store-max-entries", "none"]).is_err());
    }

    #[test]
    fn empty_args_are_defaults() {
        let opts = parse(&[]).expect("valid");
        assert_eq!(opts, Options::default());
    }
}
