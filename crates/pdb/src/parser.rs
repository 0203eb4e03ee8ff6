//! A column-oriented parser for the subset of the PDB format that protein
//! structure comparison needs: `ATOM`/`HETATM`, `TER`, `MODEL`/`ENDMDL` and
//! `END` records.
//!
//! The parser follows the paper's dataset convention: by default it keeps
//! only the **first model** of multi-model (NMR) files; alternate locations
//! other than `' '`/`'A'` are dropped.

use crate::error::PdbError;
use crate::geometry::Vec3;
use crate::model::{AminoAcid, Atom, Chain, Residue, Structure};

/// Parser options.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Keep only the first `MODEL` (the paper uses "the first chain of the
    /// first model"). Default `true`.
    pub first_model_only: bool,
    /// Include `HETATM` records that decode to a known amino acid (e.g.
    /// `MSE`). Default `true`, matching TM-align's reader.
    pub include_het_amino: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            first_model_only: true,
            include_het_amino: true,
        }
    }
}

/// Parse a PDB file's text into a [`Structure`] with default options.
pub fn parse_pdb(name: &str, text: &str) -> Result<Structure, PdbError> {
    parse_pdb_with(name, text, &ParseOptions::default())
}

/// Parse with explicit [`ParseOptions`].
pub fn parse_pdb_with(name: &str, text: &str, opts: &ParseOptions) -> Result<Structure, PdbError> {
    let mut structure = Structure::new(name);
    let mut in_model = 0usize; // how many MODEL records seen so far
    let mut chain_done = std::collections::HashSet::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let record = field(line, 0, 6);
        match record.trim_end() {
            "MODEL" => {
                in_model += 1;
                if opts.first_model_only && in_model > 1 {
                    break;
                }
            }
            "ENDMDL" if opts.first_model_only => {
                break;
            }
            "END" => break,
            "TER" => {
                // Mark the current chain closed so stray atoms after TER
                // (waters etc.) don't get appended to it.
                let chain_id = char_at(line, 21).unwrap_or(' ');
                chain_done.insert(chain_id);
            }
            "ATOM" | "HETATM" => {
                let is_het = record.trim_end() == "HETATM";
                let res_name = field(line, 17, 20);
                let aa = AminoAcid::from_three_letter(res_name);
                if is_het && (!opts.include_het_amino || aa == AminoAcid::Unknown) {
                    continue;
                }
                let altloc = char_at(line, 16).unwrap_or(' ');
                if altloc != ' ' && altloc != 'A' {
                    continue;
                }
                let chain_id = char_at(line, 21).unwrap_or(' ');
                if chain_done.contains(&chain_id) {
                    continue;
                }
                let serial: u32 = field(line, 6, 11)
                    .trim()
                    .parse()
                    .map_err(|_| PdbError::malformed(lineno, "atom serial"))?;
                let atom_name = field(line, 12, 16).trim().to_owned();
                let seq_num: i32 = field(line, 22, 26)
                    .trim()
                    .parse()
                    .map_err(|_| PdbError::malformed(lineno, "residue number"))?;
                let insertion = char_at(line, 26).filter(|c| *c != ' ');
                let x = parse_coord(line, 30, lineno, "x")?;
                let y = parse_coord(line, 38, lineno, "y")?;
                let z = parse_coord(line, 46, lineno, "z")?;
                let occupancy = field(line, 54, 60).trim().parse().unwrap_or(1.0);
                let b_factor = field(line, 60, 66).trim().parse().unwrap_or(0.0);

                let chain = get_or_push_chain(&mut structure, chain_id);
                let need_new_residue = match chain.residues.last() {
                    Some(r) => r.seq_num != seq_num || r.insertion != insertion,
                    None => true,
                };
                if need_new_residue {
                    chain.residues.push(Residue {
                        seq_num,
                        insertion,
                        aa,
                        atoms: Vec::new(),
                    });
                }
                let residue = chain.residues.last_mut().expect("just ensured");
                // Skip duplicate atom names within a residue (e.g. from
                // files that list several conformers without altloc codes).
                if residue.atoms.iter().all(|a| a.name != atom_name) {
                    residue.atoms.push(Atom {
                        serial,
                        name: atom_name,
                        pos: Vec3::new(x, y, z),
                        occupancy,
                        b_factor,
                    });
                }
            }
            _ => {}
        }
    }

    if structure.chains.iter().all(|c| c.is_empty()) {
        return Err(PdbError::Empty);
    }
    Ok(structure)
}

fn get_or_push_chain(structure: &mut Structure, id: char) -> &mut Chain {
    // Chains are appended in first-appearance order; atoms for an already
    // seen chain go to that chain.
    if let Some(idx) = structure.chains.iter().position(|c| c.id == id) {
        &mut structure.chains[idx]
    } else {
        structure.chains.push(Chain {
            id,
            residues: Vec::new(),
        });
        structure.chains.last_mut().expect("just pushed")
    }
}

fn parse_coord(
    line: &str,
    start: usize,
    lineno: usize,
    axis: &'static str,
) -> Result<f64, PdbError> {
    // `f64::from_str` also takes "NaN" and "inf", which no structure has
    // and every downstream score would be poisoned by.
    field(line, start, start + 8)
        .trim()
        .parse()
        .ok()
        .filter(|v: &f64| v.is_finite())
        .ok_or(PdbError::malformed(lineno, axis))
}

/// Extract a fixed-width column range, tolerating short lines.
fn field(line: &str, start: usize, end: usize) -> &str {
    let bytes = line.as_bytes();
    if start >= bytes.len() {
        return "";
    }
    let end = end.min(bytes.len());
    // PDB files are ASCII; a non-ASCII file would make byte slicing panic
    // on a char boundary, so fall back to an empty field in that case.
    line.get(start..end).unwrap_or("")
}

fn char_at(line: &str, idx: usize) -> Option<char> {
    line.as_bytes().get(idx).map(|b| *b as char)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
HEADER    OXYGEN TRANSPORT                        22-JUL-93   1ASH
ATOM      1  N   GLY A   1      -0.329   1.390  -0.000  1.00  0.00
ATOM      2  CA  GLY A   1       0.506   0.197   0.000  1.00  0.00
ATOM      3  C   GLY A   1       1.999   0.513  -0.000  1.00  0.00
ATOM      4  O   GLY A   1       2.417   1.664   0.000  1.00  0.00
ATOM      5  N   ALA A   2       2.841  -0.519  -0.000  1.00  0.00
ATOM      6  CA  ALA A   2       4.296  -0.350   0.000  1.00 10.50
TER       7      ALA A   2
END
";

    #[test]
    fn parses_basic_atoms() {
        let s = parse_pdb("1ash", SAMPLE).unwrap();
        assert_eq!(s.chains.len(), 1);
        let chain = &s.chains[0];
        assert_eq!(chain.id, 'A');
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.sequence(), "GA");
        let ca = chain.residues[0].ca().unwrap();
        assert!((ca.x - 0.506).abs() < 1e-9);
        assert!((chain.residues[1].atoms[1].b_factor - 10.5).abs() < 1e-9);
    }

    #[test]
    fn first_model_only() {
        let multi = "\
MODEL        1
ATOM      1  CA  GLY A   1       0.000   0.000   0.000  1.00  0.00
ENDMDL
MODEL        2
ATOM      1  CA  GLY A   1       9.000   9.000   9.000  1.00  0.00
ENDMDL
END
";
        let s = parse_pdb("multi", multi).unwrap();
        assert_eq!(s.chains[0].len(), 1);
        assert!((s.chains[0].residues[0].ca().unwrap().x).abs() < 1e-9);

        let all = parse_pdb_with(
            "multi",
            multi,
            &ParseOptions {
                first_model_only: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Second model's CA has the same residue number and atom name, so
        // it is folded into the existing residue and deduplicated.
        assert_eq!(all.chains[0].len(), 1);
        assert_eq!(all.chains[0].residues[0].atoms.len(), 1);
    }

    #[test]
    fn hetatm_mse_is_met() {
        let text = "\
HETATM    1  CA  MSE A   1       1.000   2.000   3.000  1.00  0.00
END
";
        let s = parse_pdb("mse", text).unwrap();
        assert_eq!(s.chains[0].residues[0].aa, AminoAcid::Met);
    }

    #[test]
    fn hetatm_water_skipped() {
        let text = "\
ATOM      1  CA  GLY A   1       1.000   2.000   3.000  1.00  0.00
HETATM    2  O   HOH A 101       9.000   9.000   9.000  1.00  0.00
END
";
        let s = parse_pdb("wat", text).unwrap();
        assert_eq!(s.residue_count(), 1);
    }

    #[test]
    fn altloc_b_skipped() {
        let text = "\
ATOM      1  CA AGLY A   1       1.000   2.000   3.000  0.50  0.00
ATOM      2  CA BGLY A   1       5.000   6.000   7.000  0.50  0.00
END
";
        let s = parse_pdb("alt", text).unwrap();
        let chain = &s.chains[0];
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.residues[0].atoms.len(), 1);
        assert!((chain.residues[0].ca().unwrap().x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn atoms_after_ter_ignored() {
        let text = "\
ATOM      1  CA  GLY A   1       1.000   2.000   3.000  1.00  0.00
TER       2      GLY A   1
ATOM      3  CA  ALA A   2       5.000   6.000   7.000  1.00  0.00
END
";
        let s = parse_pdb("ter", text).unwrap();
        assert_eq!(s.chains[0].len(), 1);
    }

    #[test]
    fn two_chains() {
        let text = "\
ATOM      1  CA  GLY A   1       1.000   2.000   3.000  1.00  0.00
ATOM      2  CA  ALA B   1       5.000   6.000   7.000  1.00  0.00
END
";
        let s = parse_pdb("ab", text).unwrap();
        assert_eq!(s.chains.len(), 2);
        assert_eq!(s.chains[0].id, 'A');
        assert_eq!(s.chains[1].id, 'B');
    }

    #[test]
    fn insertion_codes_split_residues() {
        let text = "\
ATOM      1  CA  GLY A  27       1.000   2.000   3.000  1.00  0.00
ATOM      2  CA  ALA A  27A      5.000   6.000   7.000  1.00  0.00
END
";
        let s = parse_pdb("ins", text).unwrap();
        assert_eq!(s.chains[0].len(), 2);
        assert_eq!(s.chains[0].residues[1].insertion, Some('A'));
    }

    #[test]
    fn empty_file_is_error() {
        assert!(matches!(parse_pdb("x", "END\n"), Err(PdbError::Empty)));
    }

    #[test]
    fn malformed_coordinate_is_error() {
        let text = "ATOM      1  CA  GLY A   1       xxx     2.000   3.000\n";
        assert!(matches!(
            parse_pdb("bad", text),
            Err(PdbError::Malformed { .. })
        ));
    }

    #[test]
    fn non_finite_coordinate_is_error() {
        for (bad, axis) in [("NaN", "x"), ("inf", "y"), ("-inf", "z")] {
            let mut cols = ["1.000", "2.000", "3.000"];
            cols["xyz".find(axis).unwrap()] = bad;
            let text = format!(
                "ATOM      1  CA  GLY A   1    {:>8}{:>8}{:>8}\n",
                cols[0], cols[1], cols[2]
            );
            assert_eq!(
                parse_pdb("bad", &text).unwrap_err(),
                PdbError::malformed(1, axis),
                "{bad} as {axis}"
            );
        }
    }

    #[test]
    fn short_lines_tolerated() {
        // Occupancy / B-factor columns missing entirely.
        let text = "ATOM      1  CA  GLY A   1       1.000   2.000   3.000\n";
        let s = parse_pdb("short", text).unwrap();
        assert!((s.chains[0].residues[0].atoms[0].occupancy - 1.0).abs() < 1e-9);
    }
}
