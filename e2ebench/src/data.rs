//! The benchmark's kept data: the full-FEM reference field of the
//! `cold_accuracy` problem and the golden job results of `campaign_sweep`.
//! Both are plain `key value` text, written once by the benchmark's own
//! `gen-reference` / `record-goldens` commands and read by every run.
//! Floats use Rust's shortest round-trip formatting, so they read back
//! bit for bit.

use std::path::PathBuf;

/// Path of a file in the benchmark's `data/` directory.
pub fn data_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(file)
}

/// File name of the `cold_accuracy` reference.
pub const REFERENCE_FILE: &str = "cold_accuracy_reference.txt";

/// File name of the `campaign_sweep` goldens.
pub const GOLDENS_FILE: &str = "campaign_goldens.txt";

/// The full-FEM mid-plane von Mises field of the `cold_accuracy` problem,
/// with the cost of computing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Sample counts along x and y.
    pub samples: [usize; 2],
    /// Von Mises samples (MPa), `values[j * nx + i]`.
    pub values: Vec<f64>,
    /// Free DoFs of the full-FEM system.
    pub fem_dofs: usize,
    /// Wall time of the full-FEM solve and sampling (s).
    pub fem_wall_s: f64,
    /// Peak resident memory of the generating process (MB).
    pub fem_peak_rss_mb: f64,
    /// Hardware threads of the generating machine.
    pub hardware_threads: usize,
}

impl Reference {
    /// Renders the file text.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# Full-FEM reference of the cold_accuracy problem: 4x4 clamped TSV array,\n\
             # pitch 15 um, medium resolution, dT = -250 C, 10x10 mid-plane samples per block.\n\
             # Regenerate with: cargo run --release --manifest-path e2ebench/Cargo.toml -- gen-reference\n",
        );
        out.push_str(&format!(
            "samples {} {}\nfem_dofs {}\nfem_wall_s {}\nfem_peak_rss_mb {}\nhardware_threads {}\n",
            self.samples[0],
            self.samples[1],
            self.fem_dofs,
            self.fem_wall_s,
            self.fem_peak_rss_mb,
            self.hardware_threads
        ));
        out.push_str("values\n");
        for v in &self.values {
            out.push_str(&format!("{v}\n"));
        }
        out
    }

    /// Parses [`to_text`](Self::to_text) output.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut reference = Reference {
            samples: [0, 0],
            values: Vec::new(),
            fem_dofs: 0,
            fem_wall_s: 0.0,
            fem_peak_rss_mb: 0.0,
            hardware_threads: 0,
        };
        let mut in_values = false;
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            if in_values {
                reference.values.push(num(line)?);
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "samples" => {
                    let (x, y) = rest.split_once(' ').ok_or("samples needs two counts")?;
                    reference.samples = [num(x)? as usize, num(y)? as usize];
                }
                "fem_dofs" => reference.fem_dofs = num(rest)? as usize,
                "fem_wall_s" => reference.fem_wall_s = num(rest)?,
                "fem_peak_rss_mb" => reference.fem_peak_rss_mb = num(rest)?,
                "hardware_threads" => reference.hardware_threads = num(rest)? as usize,
                "values" => in_values = true,
                other => return Err(format!("unknown reference key `{other}`")),
            }
        }
        if reference.values.len() != reference.samples[0] * reference.samples[1]
            || reference.values.is_empty()
        {
            return Err(format!(
                "reference holds {} values for a {}x{} grid",
                reference.values.len(),
                reference.samples[0],
                reference.samples[1]
            ));
        }
        Ok(reference)
    }

    /// Reads the kept reference.
    pub fn load() -> Result<Self, String> {
        let path = data_path(REFERENCE_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }
}

/// The expected result of one `campaign_sweep` job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Golden {
    /// Edge of the solved block lattice (dummy rings included).
    pub lattice: usize,
    /// Thermal load ΔT (°C).
    pub load: f64,
    /// FNV-1a job checksum.
    pub checksum: u64,
    /// Peak absolute nodal displacement (µm).
    pub peak_displacement: f64,
    /// Peak mid-plane von Mises stress (MPa).
    pub peak_von_mises: f64,
}

/// Renders goldens as file text.
pub fn goldens_to_text(goldens: &[Golden]) -> String {
    let mut out = String::from(
        "# Golden campaign_sweep job results, one per (lattice edge, load dT).\n\
         # Regenerate with: cargo run --release --manifest-path e2ebench/Cargo.toml -- record-goldens\n\
         # lattice load checksum peak_displacement peak_von_mises\n",
    );
    for g in goldens {
        out.push_str(&format!(
            "{} {} {:016x} {} {}\n",
            g.lattice, g.load, g.checksum, g.peak_displacement, g.peak_von_mises
        ));
    }
    out
}

/// Parses [`goldens_to_text`] output.
pub fn parse_goldens(text: &str) -> Result<Vec<Golden>, String> {
    let mut goldens = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [lattice, load, checksum, disp, vm] = fields[..] else {
            return Err(format!("malformed golden line `{line}`"));
        };
        goldens.push(Golden {
            lattice: num(lattice)? as usize,
            load: num(load)?,
            checksum: u64::from_str_radix(checksum, 16)
                .map_err(|e| format!("bad checksum `{checksum}`: {e}"))?,
            peak_displacement: num(disp)?,
            peak_von_mises: num(vm)?,
        });
    }
    Ok(goldens)
}

/// Reads the kept goldens.
pub fn load_goldens() -> Result<Vec<Golden>, String> {
    let path = data_path(GOLDENS_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_goldens(&text)
}

fn num(text: &str) -> Result<f64, String> {
    text.trim()
        .parse::<f64>()
        .map_err(|e| format!("bad number `{text}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_bitwise() {
        let reference = Reference {
            samples: [2, 1],
            values: [0.1 + 0.2, 1.0 / 3.0].to_vec(),
            fem_dofs: 12345,
            fem_wall_s: 55.625,
            fem_peak_rss_mb: 2240.5,
            hardware_threads: 2,
        };
        assert_eq!(Reference::parse(&reference.to_text()), Ok(reference));
        assert!(Reference::parse("samples 2 2\nvalues\n1\n").is_err());
    }

    #[test]
    fn goldens_round_trip_bitwise() {
        let goldens = vec![Golden {
            lattice: 12,
            load: -275.0,
            checksum: 0xdead_beef_0123_4567,
            peak_displacement: 0.1 + 0.2,
            peak_von_mises: 1.0 / 3.0,
        }];
        assert_eq!(parse_goldens(&goldens_to_text(&goldens)), Ok(goldens));
    }

    #[test]
    fn kept_data_parses() {
        let reference = Reference::load().expect("kept reference");
        assert_eq!(reference.samples, [40, 40]);
        let goldens = load_goldens().expect("kept goldens");
        assert_eq!(goldens.len(), 2 * crate::gen::LOAD_POOL.len());
    }
}
