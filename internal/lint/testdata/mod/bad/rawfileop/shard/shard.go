// Failing fixture for the rawfileop rule: a package named shard writing
// its manifest without consulting the fault injector.
package shard

import "os"

func writeManifest(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want "raw os.WriteFile outside a faultfs shim"
}
