//! The one command-line parser of the workspace's binaries.
//!
//! A [`Flags`] table declares each flag once: its spec (`"--ranks, -p
//! P"`: the spellings, canonical first, then the value's name, if it
//! takes one), one help line and what it sets. [`Flags::parse`] reads
//! `argv` against it and accumulates every problem instead of stopping
//! at the first, and the table's `Display` is the `--help` text. The
//! eight request flags both factorization front ends take are declared
//! once, by [`Flags::request`], and fill one [`RequestFlags`] of
//! `Option`s, so "did the user set it" is `is_some()`.

use crate::config::Algo;
use nmf_nls::SolverKind;
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// A flag's value as given, with the flag's canonical spelling for
/// error messages.
pub struct Arg<'a> {
    pub flag: &'static str,
    pub value: &'a str,
}

impl Arg<'_> {
    /// The value as an integer.
    pub fn int<N: FromStr>(&self) -> Result<N, String> {
        let bad = |_| format!("{} expects an integer, got '{}'", self.flag, self.value);
        self.value.parse().map_err(bad)
    }

    /// The value as an integer of at least 1.
    pub fn positive(&self) -> Result<usize, String> {
        match self.int()? {
            0 => Err(format!("{} must be >= 1", self.flag)),
            n => Ok(n),
        }
    }
}

type Setter<T> = Box<dyn Fn(&mut T, &Arg) -> Result<(), String>>;

/// The field of `T` a flag fills; `Some` once the flag is given.
type Field<T, V> = fn(&mut T) -> &mut Option<V>;

struct Flag<T> {
    spec: &'static str,
    /// The spellings in `spec`, canonical first.
    names: Vec<&'static str>,
    /// Whether `spec` names a value after the spellings.
    takes_value: bool,
    help: String,
    set: Setter<T>,
}

/// A command's flag table: what it accepts, what each flag sets in a
/// `T`, and the `--help` text.
pub struct Flags<T> {
    usage: &'static str,
    flags: Vec<Flag<T>>,
}

impl<T: 'static> Flags<T> {
    /// An empty table; `usage` heads `--help`.
    pub fn new(usage: &'static str) -> Self {
        let flags = Vec::new();
        Flags { usage, flags }
    }

    /// A flag whose value `set` parses and applies; its error is
    /// reported as given.
    pub fn value(
        mut self,
        spec: &'static str,
        set: impl Fn(&mut T, &Arg) -> Result<(), String> + 'static,
    ) -> Self {
        self.flags.push(Flag {
            spec,
            names: spec
                .split([' ', ','])
                .filter(|w| w.starts_with('-'))
                .collect(),
            takes_value: spec.split(' ').any(|w| !w.starts_with('-')),
            help: String::new(),
            set: Box::new(set),
        });
        self
    }

    /// A flag whose value is kept as given.
    pub fn text<V: From<String> + 'static>(self, spec: &'static str, f: Field<T, V>) -> Self {
        self.value(spec, move |t, a| {
            *f(t) = Some(a.value.to_string().into());
            Ok(())
        })
    }

    /// A flag whose value is an integer.
    pub fn int<N: FromStr + 'static>(self, spec: &'static str, f: Field<T, N>) -> Self {
        self.value(spec, move |t, a| a.int().map(|n| *f(t) = Some(n)))
    }

    /// A flag whose value is an integer of at least 1.
    pub fn positive(self, spec: &'static str, f: Field<T, usize>) -> Self {
        self.value(spec, move |t, a| a.positive().map(|n| *f(t) = Some(n)))
    }

    /// A flag that takes no value.
    pub fn switch(self, spec: &'static str, f: fn(&mut T) -> &mut bool) -> Self {
        self.value(spec, move |t, _| {
            *f(t) = true;
            Ok(())
        })
    }

    /// The help line of the flag declared last.
    pub fn help(mut self, help: impl Into<String>) -> Self {
        self.last().help = help.into();
        self
    }

    /// Appends to the help line of the flag declared last the value the
    /// code applies when that flag is not given.
    pub fn default(mut self, default: impl fmt::Display) -> Self {
        write!(self.last().help, " (default {default})").expect("writing to a String");
        self
    }

    fn last(&mut self) -> &mut Flag<T> {
        self.flags.last_mut().expect("declared after its flag")
    }

    /// Applies `argv` (without the program name) to `target`, pushing
    /// one message per problem onto `errors`, and returns the operands:
    /// the words that are neither flags nor flag values, in order.
    /// `--help` or `-h` prints the table (its `Display`) and exits.
    pub fn parse(&self, argv: &[String], target: &mut T, errors: &mut Vec<String>) -> Vec<String> {
        let mut operands = Vec::new();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            if word == "--help" || word == "-h" {
                print!("{self}");
                std::process::exit(0);
            }
            let Some(flag) = self.flags.iter().find(|f| f.names.contains(&word.as_str())) else {
                if word.starts_with('-') {
                    errors.push(format!("unknown flag {word}"));
                } else {
                    operands.push(word.clone());
                }
                continue;
            };
            let name = flag.names[0];
            let value = match flag.takes_value {
                true => words.next().map(String::as_str),
                false => Some(""),
            };
            let Some(value) = value else {
                errors.push(format!("missing value for {name}"));
                continue;
            };
            if let Err(e) = (flag.set)(target, &Arg { flag: name, value }) {
                errors.push(e);
            }
        }
        operands
    }

    /// Prints `--help`, then each of `errors`, and exits with status 2.
    pub fn fail(&self, errors: &[String]) -> ! {
        print!("{self}");
        for e in errors {
            eprintln!("error: {e}");
        }
        std::process::exit(2)
    }
}

/// `--help`: the usage text, then one line per flag.
impl<T> fmt::Display for Flags<T> {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        write!(f, "{}\n\nflags:\n", self.usage)?;
        let rows = self.flags.iter().map(|f| (f.spec, &*f.help));
        for (spec, help) in rows.chain([("--help, -h", "print this help")]) {
            writeln!(f, "  {spec:<26} {help}")?;
        }
        Ok(())
    }
}

/// The request flags as given: a field is `Some` exactly when its flag
/// was set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestFlags {
    pub dataset: Option<String>,
    /// At least 1.
    pub scale: Option<usize>,
    /// One rank, or several to sweep; never empty.
    pub k: Option<Vec<usize>>,
    pub ranks: Option<usize>,
    pub iters: Option<usize>,
    pub seed: Option<u64>,
    pub algo: Option<Algo>,
    pub solver: Option<SolverKind>,
}

/// What a front end applies where a request flag is unset; `--help`
/// prints these values.
#[derive(Clone, Copy, Debug)]
pub struct RequestDefaults {
    pub dataset: &'static str,
    pub scale: usize,
    pub k: usize,
    pub ranks: usize,
    pub iters: usize,
    pub seed: u64,
    pub algo: Algo,
    pub solver: SolverKind,
}

const ALGOS: [&str; 4] = ["seq", "naive", "hpc1d", "hpc2d"];

/// The one of `names` that parses to `v`.
fn name_of<V: FromStr + PartialEq>(names: &[&'static str], v: V) -> &'static str {
    let name = names.iter().find(|n| n.parse().ok().as_ref() == Some(&v));
    name.expect("every default has a command-line name")
}

impl<T: AsMut<RequestFlags> + 'static> Flags<T> {
    /// Adds the eight request flags; `--help` prints `d` as their
    /// defaults.
    pub fn request(self, d: &RequestDefaults) -> Self {
        self.text("--dataset NAME", |t| &mut t.as_mut().dataset)
            .help("generated input: dsyn | ssyn | video | webbase")
            .default(d.dataset)
            .positive("--scale N", |t| &mut t.as_mut().scale)
            .help("divide the paper's dimensions by N")
            .default(d.scale)
            .value("--k, -k K[,K2,...]", |t, a| {
                let ks = a.value.split(',').map(|part| {
                    part.trim().parse().map_err(|_| {
                        format!("--k expects an integer or comma list (e.g. 4,8,16), got '{part}'")
                    })
                });
                t.as_mut().k = Some(ks.collect::<Result<_, _>>()?);
                Ok(())
            })
            .help("low rank, or a comma list of ranks to sweep")
            .default(d.k)
            .int("--ranks, -p P", |t| &mut t.as_mut().ranks)
            .help("virtual ranks")
            .default(d.ranks)
            .int("--iters N", |t| &mut t.as_mut().iters)
            .help("max iterations")
            .default(d.iters)
            .int("--seed N", |t| &mut t.as_mut().seed)
            .help("seed of the generated input and the initial factors")
            .default(d.seed)
            .value("--algo A", |t, a| {
                a.value.parse().map(|v| t.as_mut().algo = Some(v))
            })
            .help(ALGOS.join(" | "))
            .default(name_of(&ALGOS, d.algo))
            .value("--solver S", |t, a| {
                a.value.parse().map(|v| t.as_mut().solver = Some(v))
            })
            .help(SolverKind::ALL.map(SolverKind::name).join(" | "))
            .default(d.solver.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Target {
        req: RequestFlags,
        name: Option<String>,
        on: bool,
    }

    impl AsMut<RequestFlags> for Target {
        fn as_mut(&mut self) -> &mut RequestFlags {
            &mut self.req
        }
    }

    const DEFAULTS: RequestDefaults = RequestDefaults {
        dataset: "ssyn",
        scale: 200,
        k: 10,
        ranks: 4,
        iters: 20,
        seed: 42,
        algo: Algo::Hpc2D,
        solver: SolverKind::Bpp,
    };

    fn table() -> Flags<Target> {
        Flags::<Target>::new("usage: test [flags]")
            .text("--name NAME", |t| &mut t.name)
            .help("a name")
            .switch("--on", |t| &mut t.on)
            .help("a switch")
            .request(&DEFAULTS)
    }

    fn parse(s: &str) -> (Target, Vec<String>, Vec<String>) {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        let (mut t, mut errors) = (Target::default(), Vec::new());
        let operands = table().parse(&argv, &mut t, &mut errors);
        (t, operands, errors)
    }

    #[test]
    fn sets_what_was_given_and_nothing_else() {
        let (t, operands, errors) = parse("run --name x --on -k 4,8 -p 3 --algo seq --solver mu");
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(operands, ["run"]);
        assert_eq!((t.name.as_deref(), t.on), (Some("x"), true));
        let want = RequestFlags {
            k: Some(vec![4, 8]),
            ranks: Some(3),
            algo: Some(Algo::Sequential),
            solver: Some(SolverKind::Mu),
            ..RequestFlags::default()
        };
        assert_eq!(t.req, want);
    }

    #[test]
    fn every_problem_is_reported_once() {
        let (_, _, errors) = parse("--bogus --iters x --k 4,y --algo what --seed");
        assert_eq!(
            errors,
            [
                "unknown flag --bogus",
                "--iters expects an integer, got 'x'",
                "--k expects an integer or comma list (e.g. 4,8,16), got 'y'",
                "unknown algorithm 'what' (expected seq | naive | hpc1d | hpc2d)",
                "missing value for --seed",
            ]
        );
    }

    #[test]
    fn scale_zero_is_a_parse_error() {
        let (t, _, errors) = parse("--dataset ssyn --scale 0");
        assert_eq!(errors, ["--scale must be >= 1"]);
        assert_eq!(t.req.scale, None);
    }

    #[test]
    fn help_renders_one_line_per_flag_with_the_defaults_applied() {
        let help = table().to_string();
        let lines: Vec<&str> = help.lines().filter(|l| l.starts_with("  -")).collect();
        assert_eq!(lines.len(), 11, "{help}");
        for (flag, default) in [
            ("--dataset", "ssyn"),
            ("--scale", "200"),
            ("--k, -k", "10"),
            ("--ranks, -p", "4"),
            ("--iters", "20"),
            ("--seed", "42"),
            ("--algo", "hpc2d"),
            ("--solver", "bpp"),
        ] {
            let line = lines.iter().find(|l| l.trim_start().starts_with(flag));
            let line = line.unwrap_or_else(|| panic!("no line for {flag}:\n{help}"));
            assert!(line.ends_with(&format!("(default {default})")), "{line}");
        }
    }
}
