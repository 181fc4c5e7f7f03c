# Prints the non-test lines of Rust source files: everything before a
# top-level `#[cfg(test)]` whose next line opens an inline module
# (`mod tests {`). On a `mod name;` declaration the attribute drops only
# that declaration (scripts/loc.sh skips the file it names); on any other
# item it is printed with the item, as code.
FNR == 1 { in_tests = 0; held = "" }
in_tests { next }
held != "" {
    is_mod = $0 ~ /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+( \{|;)/
    if (!is_mod) print held
    held = ""
    if (is_mod) { in_tests = $0 ~ /\{$/; next }
}
/^#\[cfg\(test\)\]$/ { held = $0; next }
{ print }
