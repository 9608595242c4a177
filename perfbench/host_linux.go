package main

import "syscall"

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x6969:
		return "nfs"
	default:
		return "0x" + hex(uint32(st.Type))
	}
}

func hex(v uint32) string {
	const digits = "0123456789abcdef"
	var b []byte
	for {
		b = append([]byte{digits[v%16]}, b...)
		v /= 16
		if v == 0 {
			return string(b)
		}
	}
}

// mountTmpfs mounts a tmpfs over dir and returns its unmount, or nil when
// the process may not mount. Call it only in a mount namespace of the
// process's own (run.py starts the benchmark under unshare): the stores
// then live in memory at a path inside the checkout, and nothing outside
// the process ever sees the mount.
func mountTmpfs(dir string) func() {
	if err := syscall.Mount("tmpfs", dir, "tmpfs", 0, "size=1g,mode=0755"); err != nil {
		return nil
	}
	return func() { _ = syscall.Unmount(dir, 0) }
}
