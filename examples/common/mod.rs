//! The one output helper the figure examples share.

use std::path::PathBuf;

/// Writes `header` and one line per row to `results/<name>` at the
/// workspace root (created on demand) and logs the path on stderr.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut body = format!("{header}\n");
    for row in rows {
        body.push_str(row);
        body.push('\n');
    }
    std::fs::write(&path, body)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
