package hospital

import (
	"fmt"
	"math/rand"
	"strings"

	"logscape/internal/directory"
)

// Message formats. The paper's §3.3 observes that the way a remote service
// invocation is logged "is peculiar to each piece of code, respectively the
// code's author", but almost always cites an element of the service
// directory. Each simulated application is assigned one invocation style
// and (for group owners) one serving style at topology-generation time.

// numInvokeStyles is the number of client-side invocation-log formats.
const numInvokeStyles = 6

// numStoppableServingStyles is the number of server-side formats covered by
// the canonical stop patterns; numUnstoppableServingStyles formats are not
// (the two surviving inverted dependencies of §4.8).
const (
	numStoppableServingStyles   = 10
	numUnstoppableServingStyles = 2
)

// invokeMessage renders a client-side invocation log for the given style,
// citing the (possibly wrong) group id or its URL fragment.
func invokeMessage(style int, citedID, fct, urlFrag string, rng *rand.Rand) string {
	switch style % numInvokeStyles {
	case 0:
		return fmt.Sprintf("Invoke externalService [fct [%s] server [%s]]", fct, urlFrag)
	case 1:
		return fmt.Sprintf("(%s) %s( $myparams )", citedID, fct)
	case 2:
		return fmt.Sprintf("calling %s.%s for case %d", citedID, fct, 100000+rng.Intn(900000))
	case 3:
		return fmt.Sprintf("ws-call url=%s fct=%s took %d ms", urlFrag, fct, 5+rng.Intn(400))
	case 4:
		return fmt.Sprintf("remote invocation of %s on %s ok", fct, citedID)
	default:
		return fmt.Sprintf("-> %s : %s", citedID, fct)
	}
}

// completionMessage renders the caller's after-invocation log; it carries no
// directory citation (the before-log already did).
func completionMessage(fct string, rng *rand.Rand) string {
	return fmt.Sprintf("call %s returned in %d ms", fct, 5+rng.Intn(400))
}

// servingMessage renders a server-side log of the owner handling a request
// for one of its groups. Styles 0..numStoppableServingStyles-1 are covered
// by CanonicalStopPatterns; the remaining styles are not. Style -1 renders
// a citation-free serving log.
func servingMessage(style int, groupID, fct string, rng *rand.Rand) string {
	ms := 1 + rng.Intn(250)
	switch style {
	case 0:
		return fmt.Sprintf("serving request %s for group %s", fct, groupID)
	case 1:
		return fmt.Sprintf("handled %s.%s in %d ms", groupID, fct, ms)
	case 2:
		return fmt.Sprintf("request received [group %s] [fct %s]", groupID, fct)
	case 3:
		return fmt.Sprintf("executing %s (%s) on behalf of client", fct, groupID)
	case 4:
		return fmt.Sprintf("SOAP dispatch %s/%s status=200", groupID, fct)
	case 5:
		return fmt.Sprintf("inbound call %s @ %s", fct, groupID)
	case 6:
		return fmt.Sprintf("processed %s operation %s rc=0", groupID, fct)
	case 7:
		return fmt.Sprintf("service %s begin %s", groupID, fct)
	case 8:
		return fmt.Sprintf("answering %s for %s", fct, groupID)
	case 9:
		return fmt.Sprintf("done %s::%s duration=%dms", groupID, fct, ms)
	case 10:
		return fmt.Sprintf("%s %s t=%dms rc=0", groupID, fct, ms)
	case 11:
		return fmt.Sprintf("trace %s|%s|ok", fct, groupID)
	default:
		return fmt.Sprintf("exec %s completed in %d ms", fct, ms)
	}
}

// stackTraceMessage renders the caller-side log of a failed invocation of
// group failedID whose owner's exception trace cites citedGroup — the
// transitive false-positive mechanism of §4.8 ("the log of an exception
// stack trace returned by the intermediary").
func stackTraceMessage(failedID, fct, citedGroup, citedFrag string) string {
	return fmt.Sprintf(
		"remote exception from %s.%s: ServiceException caused by TimeoutException at http://%s (%s)",
		failedID, fct, citedFrag, citedGroup)
}

// patientMessage renders a clinical free-text log mentioning a patient by
// name. When the surname is a legacy group codename this produces the
// coincidence false positives of §4.8.
func patientMessage(surname, first string, rng *rand.Rand) string {
	return fmt.Sprintf("opened record of patient %s %s (PID %d)", surname, first, 10000+rng.Intn(90000))
}

// patientIDMessage renders the common, name-free variant.
func patientIDMessage(rng *rand.Rand) string {
	return fmt.Sprintf("opened record PID %d", 10000+rng.Intn(90000))
}

// guiActionMessage renders a generic GUI interaction log.
func guiActionMessage(rng *rand.Rand) string {
	actions := []string{
		"view rendered in %d ms",
		"tab switched to results after %d ms",
		"form validation passed (%d fields)",
		"printing document batch of %d pages",
		"search returned %d hits",
	}
	return fmt.Sprintf(actions[rng.Intn(len(actions))], 1+rng.Intn(500))
}

// noiseMessage renders a background log with no citations.
func noiseMessage(rng *rand.Rand) string {
	m := noiseMessages[rng.Intn(len(noiseMessages))]
	if strings.Contains(m, "%d") {
		n := strings.Count(m, "%d")
		args := make([]any, n)
		for i := range args {
			args[i] = rng.Intn(1000)
		}
		return fmt.Sprintf(m, args...)
	}
	return m
}

// CanonicalStopPatterns forwards to directory.CanonicalStopPatterns: each of
// the ten matches one of servingMessage's styles, two styles stay uncovered.
func CanonicalStopPatterns() []directory.StopPattern { return directory.CanonicalStopPatterns() }
