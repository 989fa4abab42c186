package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
)

// compareRecord checks a run's exact results against the first run of
// the same binary, workload, seed and scale in this checkout, and
// stores them when there is none yet. Records are keyed by a hash of
// the running binary, so a rebuilt program never compares against
// another program's results.
func compareRecord(out *outcome, cfg config, workload string, recs []modeRecord) {
	if cfg.recordDir == "" {
		return
	}
	exe, err := binaryHash()
	if err != nil {
		out.detail["record"] = fmt.Sprintf("off: %v", err)
		return
	}
	name := fmt.Sprintf("%s-seed%d-scale%g-%s.json", workload, cfg.seed, cfg.scale, exe[:16])
	if !cfg.seedSet {
		name = fmt.Sprintf("%s-default-scale%g-%s.json", workload, cfg.scale, exe[:16])
	}
	path := filepath.Join(cfg.recordDir, name)
	if data, err := os.ReadFile(path); err == nil {
		var prev []modeRecord
		if err := json.Unmarshal(data, &prev); err != nil {
			out.check(false, "record %s unreadable: %v", path, err)
			return
		}
		out.check(reflect.DeepEqual(prev, recs), "results differ from an earlier run of this binary (%s)", name)
		out.detail["record"] = "compared"
		return
	}
	data, err := json.Marshal(recs)
	if err != nil {
		out.detail["record"] = fmt.Sprintf("off: %v", err)
		return
	}
	if err := os.MkdirAll(cfg.recordDir, 0o755); err != nil {
		out.detail["record"] = fmt.Sprintf("off: %v", err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		out.detail["record"] = fmt.Sprintf("off: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		out.detail["record"] = fmt.Sprintf("off: %v", err)
		return
	}
	out.detail["record"] = "stored"
}

// binaryHash is the hex SHA-256 of the running executable.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
