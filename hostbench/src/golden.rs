//! The committed golden digits (`results/*.txt`) that anchor points must
//! reproduce exactly, parsed from the checkout at run time.

use std::collections::BTreeMap;
use std::path::Path;

use crate::point::{Cell, Measured};

/// Golden cell → the text the figure binary printed for it.
#[derive(Debug, Default)]
pub struct Goldens {
    cells: BTreeMap<Cell, String>,
}

/// Width of Table 1's row-label column.
const TABLE1_LABEL: usize = 28;

impl Goldens {
    /// Parse `results/{fig6a,fig6b,fig7,table1}.txt` under `root`.
    pub fn load(root: &Path) -> Result<Goldens, String> {
        let mut g = Goldens::default();
        for file in ["fig6a.txt", "fig6b.txt", "fig7.txt"] {
            g.parse_figure(file, &read(root, file)?)?;
        }
        g.parse_table1(&read(root, "table1.txt")?)?;
        Ok(g)
    }

    /// A figure table: a `size <series...>` header, then one row per size.
    fn parse_figure(&mut self, file: &'static str, text: &str) -> Result<(), String> {
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let header: Vec<&str> = lines
            .next()
            .ok_or(format!("{file}: no header"))?
            .split_whitespace()
            .collect();
        for line in lines {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let Some((size, values)) = cols.split_first() else {
                continue;
            };
            let size: usize = size
                .parse()
                .map_err(|_| format!("{file}: bad row {line:?}"))?;
            for (series, v) in header[1..].iter().zip(values) {
                self.cells.insert(
                    Cell {
                        file,
                        series: series.to_string(),
                        size,
                    },
                    v.to_string(),
                );
            }
        }
        Ok(())
    }

    /// Table 1: a row label, then `<Mb/s> Mbps (<secs> sec)` per file.
    fn parse_table1(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines().skip(2) {
            if line.len() <= TABLE1_LABEL {
                continue;
            }
            let (label, rest) = line.split_at(TABLE1_LABEL);
            for (i, cell) in rest.split_terminator(')').enumerate() {
                if cell.trim().is_empty() {
                    continue;
                }
                self.cells.insert(
                    Cell {
                        file: "table1.txt",
                        series: label.trim().to_string(),
                        size: i + 1,
                    },
                    format!("{})", cell.trim()),
                );
            }
        }
        Ok(())
    }

    /// The golden text of `cell`.
    pub fn get(&self, cell: &Cell) -> Option<&str> {
        self.cells.get(cell).map(String::as_str)
    }

    /// The golden value of `cell` as a number (the first number of a
    /// Table 1 cell, its Mb/s).
    pub fn value(&self, cell: &Cell) -> Option<f64> {
        self.get(cell)?.split_whitespace().next()?.parse().ok()
    }
}

fn read(root: &Path, file: &str) -> Result<String, String> {
    let path = root.join("results").join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// A measurement in the format its golden file prints it.
pub fn render(cell: &Cell, m: &Measured) -> String {
    if cell.file == "table1.txt" {
        format!("{:.0} Mbps ({:.2} sec)", m.value, m.aux)
    } else {
        format!("{:.1}", m.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_committed_goldens() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let g = Goldens::load(&root).expect("goldens parse");
        let cell = |file, series: &str, size| Cell {
            file,
            series: series.to_string(),
            size,
        };
        assert_eq!(g.get(&cell("fig6a.txt", "TCP", 4)), Some("54.9"));
        assert_eq!(
            g.get(&cell("fig6b.txt", "NATIVE_VIA", 32768)),
            Some("812.0")
        );
        assert_eq!(g.get(&cell("fig7.txt", "RPC/SOVIA(cLAN)", 0)), Some("37.3"));
        assert_eq!(
            g.get(&cell("table1.txt", "TCP/IP on Fast Ethernet", 1)),
            Some("93 Mbps (1.65 sec)")
        );
        assert_eq!(
            g.value(&cell("table1.txt", "SOVIA on cLAN", 1)),
            Some(512.0)
        );
    }
}
